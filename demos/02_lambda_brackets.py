"""The exact bracket calculus on a small generator system.

A generator system is declared by its bracket table; everything else --
normally ordered products, derivatives, brackets of composites -- is
computed from mode actions on PBW states and converted back to canonical
words, so canonical forms are automatic.
"""

import random
from fractions import Fraction

from vertexscreen import (Module, RationalFunctionField, bracket, comb,
                          derive, graded_basis, normal_order, sugawara_field)
from vertexscreen.verify import (check_jacobi, check_skew, check_wick,
                                 random_homogeneous_field)

F = RationalFunctionField("k")
k = F.gen

# the generator system is also its one module of PBW states
sys = Module(F)
J = sys.add_gen("J", parity=0, weight2=2, current=True)
Psi = sys.add_gen("Psi", parity=1, weight2=1)
level = (k + 2) * 2
sys.set_bracket(J, J, {1: comb(const=level)})        # [J_l J] = 2(k+2) l
sys.set_bracket(Psi, Psi, {0: comb(const=F.one)})    # [Psi_l Psi] = 1

Jf, Pf = sys.gen_field("J"), sys.gen_field("Psi")
print("derivative is a derivation of the normal product:")
print("  d(:J Psi:) =", derive(normal_order(Jf, Pf)))

print("brackets return {n: a_(n) b} with the l^n/n! convention:")
print("  [J_l J]     =", {n: str(v) for n, v in bracket(Jf, Jf).items()})
print("  [Psi_l Psi] =", {n: str(v) for n, v in bracket(Pf, Pf).items()})

L = sugawara_field(sys, [(Jf.scale_fraction(Fraction(1, 2)), Jf)],
                   (k + 2) * 2)
br = bracket(L, L)
print("Sugawara field is Virasoro:")
print("  [L_l L] n=0:", br[0], " (= dL)")
print("  [L_l L] n=1:", br[1], " (= 2L)")
print("  [L_l L] n=3:", br[3], " (= c/2 with c = 1)")

print("axioms on seeded random composite fields of weight <= 3:")
rng = random.Random(1)
for trial in range(5):
    a = random_homogeneous_field(sys, rng, 1 + rng.randrange(6))
    b = random_homogeneous_field(sys, rng, 1 + rng.randrange(6))
    c = random_homogeneous_field(sys, rng, 1 + rng.randrange(6))
    assert check_skew(a, b, bracket)
    assert check_jacobi(a, b, c, bracket)
    assert check_wick(a, b, c, bracket)
print("  skew-symmetry, Jacobi, and the Wick expansion hold exactly")

print("graded PBW bases (doubled weights):",
      [len(graded_basis(sys, w2)) for w2 in range(7)])
