"""The odd-field model on n bosons and one fermion.

G = :(c d + b_1)...(c d + b_n) Psi: generates an algebra whose bracket
expansion [G_l G] is solved against the series template; the top
coefficient is the product gamma_n = prod_j (1 - 2j(2j-1) c^2), an exact
polynomial identity in the coupling.  The model is the kernel of n
screening charges built from e^{int s a_i} with s the splitting of the
coupling (s - 1/s = c), which keeps every coefficient rational in s.
"""

from vertexscreen import WBnModel, verify_wbn_screening

for n in (1, 2, 3):
    model = WBnModel(n)
    print("== n = %d ==" % n)
    print("  lambda powers of [G_l G]:", sorted(model.brackets))
    print("  top coefficient:", model.gamma_consts[n])
    assert model.check_c2_congruences() == []
    print("  quotient congruences mod two-mode descendants: exact")
    if n == 1:
        print("  closed form at n=1:")
        for nn, fe in sorted(model.brackets.items()):
            print("    n=%d: %s" % (nn, fe))
    _, fails = verify_wbn_screening(n)
    print("  screening charges annihilate G:",
          "yes" if not fails else fails)

print()
print("W_2i in the quotient are elementary symmetric in the :b_i^2::")
model = WBnModel(3)
for i in range(3):
    got = model.c2_reduce(model.W[2 * i] if i else model.W[0])
    print("  W_%d ==" % (2 * i), got)
