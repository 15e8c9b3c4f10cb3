"""BRST reduction and the projection onto the degree-zero currents.

The reduced complex carries currents J^u for u of non-positive degree,
one charged fermion per positive restricted root and one neutral fermion
per degree-half root.  Its differential is the odd derivation fixed by
the generator tables; cohomology is computed by exact ranks per weight
and charge.  Killing the negative-degree current modes projects each
degree-zero cohomology class into the screening kernel.
"""

from vertexscreen import (BRSTComplex, RationalFunctionField, build_preset,
                          expected_character, exponential_screenings,
                          field_state, graded_basis, kernel_basis,
                          miura_project, preset_context)
from vertexscreen.linalg import solve_in_span

F = RationalFunctionField("k")
grading = build_preset("sl2-regular")
brst = BRSTComplex(grading, F, F.gen)

print("generators of the reduced complex:")
for g in brst.system.gens:
    print("  %-8s parity %d  weight %s/2  charge %d"
          % (g.name, g.parity, g.weight2, g.charge))

print("differential on the generators:")
for gidx, img in brst.d0_image.items():
    print("  d0 %-8s = %s" % (brst.system.gens[gidx].name, img))

for w2 in range(0, 9):
    for key in graded_basis(brst.system, w2):
        assert not brst.d0_state(brst.d0_state({key: F.one}))
print("d0 squares to zero on every monomial up to weight 4")

dims = brst.cohomology_dims(8)
char = expected_character(grading.datum, grading, 8)
print("H^0 dims :", [dims.get((w2, 0), 0) for w2 in range(9)])
print("character:", [char[w2] for w2 in range(9)])
print("H^n for n != 0 all vanish:",
      all(v == 0 for (w2, c), v in dims.items() if c != 0))

ctx = preset_context("sl2-regular")
ops = exponential_screenings(ctx)
print("projection of each H^0 class lies in the screening kernel:")
for w2 in (0, 4, 6, 8):
    rep = kernel_basis(ctx, ops, w2, expected=char[w2])
    kvecs = [field_state(f) for f in rep.basis_fields]
    for cls in brst.h0_basis(w2):
        img = miura_project(brst, cls, ctx)
        sol = solve_in_span(kvecs, img, F)
        assert sol is not None
        if len(kvecs) == 1:
            print("  weight %d: scalar against the kernel vector = %s"
                  % (w2 // 2, sol[0]))
