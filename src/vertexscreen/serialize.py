"""JSON forms for field expressions and reports.

A field expression serializes as a list of terms
{"coeff": "p(k)/q(k)", "word": [[generator name, derivative order], ...],
 "momentum": ["p/q or p(k)/q(k)", ...]}; momentum is omitted when absent.
Mode and weight integers are doubled wherever half-integers can occur.
"""

from .vertexcalc import FieldExpr, _term_sort_key


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


def field_from_json(system, doc):
    field = system.field
    terms = {}
    for term in doc:
        coeff = field.parse(term["coeff"])
        word = tuple((system.by_name[name], int(d)) for name, d in term["word"])
        mom = term.get("momentum")
        if mom is not None:
            mom = tuple(field.parse(x) for x in mom)
        key = (word, mom)
        terms[key] = terms.get(key, field.zero) + coeff
    return FieldExpr(system, terms)

