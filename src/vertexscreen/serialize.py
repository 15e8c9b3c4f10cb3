"""JSON form of field expressions in reports.

The form is only written; nothing in the package reads it back.  A field
expression serializes as a list of terms {"coeff": "p(k)/q(k)",
"word": [[generator name, derivative order], ...], "momentum": ["p/q or
p(k)/q(k)", ...]}; momentum is omitted when absent.  Mode and weight
integers are doubled wherever half-integers can occur.
"""

from .vertexcalc import _term_sort_key


def field_to_json(fe):
    sys = fe.system
    out = []
    for (word, mom), c in sorted(fe.terms.items(),
                                 key=lambda kv: _term_sort_key(kv[0])):
        term = {
            "coeff": str(c),
            "word": [[sys.gens[g].name, d] for (g, d) in word],
        }
        if mom is not None:
            term["momentum"] = [str(x) for x in mom]
        out.append(term)
    return out
