"""The Sugawara field of a screening context, read by the acceptance and
W-algebra tests; the program itself builds it only through
vertexcalc.sugawara_field."""

from vertexscreen.linalg import decompose
from vertexscreen.scalars import QQ
from vertexscreen.vertexcalc import sugawara_field


def sugawara(ctx):
    """The Virasoro field on the g_0 currents of ctx."""
    d, g0, system = ctx.datum, ctx.g0, ctx.system
    n = len(g0)
    gram_cols = [{i: d.form_entry(b, b2) for i, b in enumerate(g0)}
                 for b2 in g0]
    # column i of the inverse Gram matrix: the dual of e_i
    duals = decompose(gram_cols, [{i: QQ.one} for i in range(n)], QQ)
    if duals is None:
        raise ZeroDivisionError("invariant form degenerates on g_0")
    pairs = []
    for b, coeffs in zip(g0, duals):
        dual = sum((system.gen_field(ctx.current_of_basis[b2])
                    .scale_fraction(c) for b2, c in zip(g0, coeffs) if c != 0),
                   system.zero_field())
        pairs.append((dual, system.gen_field(ctx.current_of_basis[b])))
    return sugawara_field(system, pairs, ctx.kappa_shift * ctx.field.lift(2))
