"""Root data for simple Lie superalgebras, good gradings and restricted bases.

Everything downstream consumes these objects: structure constants from
explicit matrix realizations, an invariant form normalized so the highest
even root has squared length 2, half-integer gradings stored as doubled
integers, and the restricted base with its equivalence classes.
"""

from vertexscreen import build_osp, build_sl, good_grading

print("== sl_3, subregular grading (labels 0, 1) ==")
d = build_sl(3)
d.check_invariants()
print("basis:", [d.basis_name(b) for b in range(d.nbasis)])
print("dual Coxeter number:", d.dual_coxeter())

g = good_grading(d, {"a1": 0, "a2": 2}, ["a2"])
print("degrees (doubled):",
      {d.basis_name(b): g.deg2[b] for b in range(d.nbasis)})
print("g_0 dimension:", len(g.g0_indices()), "(sl_2 plus its center)")

# a good grading carries its restricted base, tau_k and chi
print("restricted base:", g.base.describe())

lf = g.levelform
ia1 = next(d.root_index(p) for p, r in enumerate(d.roots) if r.name == "a1")
print("tau(e_a1 | e_-a1) = (const, k-coeff):",
      lf.tau_pair(ia1, d.neg_index(ia1)), " -> the internal sl_2 sits at",
      "level k + 1")

c = g.chi
print("chi values:", {d.basis_name(b): str(c.of_index(b))
                      for b in range(d.nbasis) if c.of_index(b)})

print()
print("== osp(1|2n) regular: the odd short root carries the half label ==")
o = build_osp(2)
o.check_invariants()
print("dual Coxeter number:", o.dual_coxeter())
go = good_grading(o, {"b1": 2, "b2": 1}, ["b1", "2b2"])
print("restricted base:", go.base.describe())
gens = sorted((2 - j2, p) for _, j2, p in go.centralizer_generators())
print("centralizer generators (doubled conformal weight, parity):", gens)
print("  -> even weights 2, 4 and one odd weight 5/2, as expected for n=2")
