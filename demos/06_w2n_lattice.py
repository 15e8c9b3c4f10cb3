"""The lattice model on V_xi and the current substitution.

E = e^{xi} and F = :P e^{-xi}: generate the subalgebra of the lattice
vertex algebra cut out by the exponential screenings A_i = e^{int a_i}
and Q = e^{int psi}.  The degree-zero currents of the subregular
reduction of sl_n map into the model by an explicit substitution; all
current brackets are reproduced exactly over Q(k), which realizes the
affine sl_2 at level k + n - 2 inside the lattice algebra.
"""

from vertexscreen import W2nModel, WakimotoMap, bracket, verify_fs

for n in (2, 3):
    m = W2nModel(n)
    print("== n = %d ==" % n)
    print("  F =", m.F if n == 2 else "(%d canonical terms)" % len(m.F.terms))
    print("  pulled-inside form equals the definition:",
          m.rewritten_f() == m.F)
    print("  [E_l E] =", bracket(m.E, m.E) or "0")
    fails = verify_fs(m)
    print("  screenings annihilate E and F:", "yes" if not fails else fails)

print()
print("== the substitution from the sl_3 subregular degree-zero currents ==")
wm = WakimotoMap(3)
for b in wm.g0:
    print("  J[%s] -> %s" % (wm.datum.basis_name(b), wm.image_of_basis[b]))
checked, fails = wm.verify_brackets()
print("bracket pairs reproduced exactly: %d/%d" % (checked - len(fails),
                                                   checked))
