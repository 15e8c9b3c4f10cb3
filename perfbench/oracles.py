"""Correctness oracles computed apart from vertexscreen.

The character oracle works from generator weights derived by hand from
the paper (README.md has the derivation): a basis vector of g^f lying in
g_{-j} gives a generator of conformal weight 1 + j, odd when the vector is
odd.  The W-algebra is freely generated by these (with all their
derivatives), so its graded dimensions are those of the free differential
superalgebra on them.  Weights are doubled throughout, as in vertexscreen.

The denominator and specialisation oracles use sympy, imported here only,
after the timed phase: vertexscreen itself never depends on it.
"""

# preset -> [(doubled conformal weight, parity)] of the free generators
GENERATORS = {
    "sl2-regular": [(4, 0)],                          # Virasoro
    "sl3-regular": [(4, 0), (6, 0)],                  # W_3
    "osp1_2-regular": [(3, 1), (4, 0)],               # N=1 super-Virasoro
    "osp1_4-regular": [(4, 0), (5, 1), (8, 0)],       # WB_2
    "sl3-subregular": [(2, 0), (2, 0), (4, 0), (4, 0)],
    "sl4-subregular": [(2, 0), (2, 0), (4, 0), (6, 0), (6, 0)],
}


def free_character(gens, max_w2):
    """[dim at doubled weight w2 for w2 in 0..max_w2] of the free
    differential superalgebra on gens; the n-th derivative of a generator
    of doubled weight w adds a free letter of doubled weight w + 2n."""
    series = [1] + [0] * max_w2
    for w2, parity in gens:
        for letter in range(w2, max_w2 + 1, 2):
            if parity == 0:   # a letter may repeat
                for n in range(letter, max_w2 + 1):
                    series[n] += series[n - letter]
            else:             # an odd letter appears at most once
                for n in range(max_w2, letter - 1, -1):
                    series[n] += series[n - letter]
    return series


def character(preset, max_w2):
    return free_character(GENERATORS[preset], max_w2)


def _partitions_min2(n, smallest=2):
    """Partitions of n into parts >= smallest, by direct recursion."""
    if n == 0:
        return 1
    return sum(_partitions_min2(n - part, part)
               for part in range(smallest, n + 1))


def self_test(max_w2=24):
    """The Virasoro character counts partitions into parts >= 2."""
    got = character("sl2-regular", max_w2)
    want = [_partitions_min2(w2 // 2) if w2 % 2 == 0 else 0
            for w2 in range(max_w2 + 1)]
    if got != want:
        raise AssertionError("character oracle: %s != %s" % (got, want))


# ---------------------------------------------------------------------------
# kernel reports


def check_kernel_dims(results):
    """Each kernel report's dimension against the oracle character."""
    errors = []
    for res in results:
        want = character(res["preset"], res["weight2"])[res["weight2"]]
        if res["kernel_dim"] != want:
            errors.append("%s w2=%d: kernel dim %d, character %d"
                          % (res["preset"], res["weight2"],
                             res["kernel_dim"], want))
    return errors


def check_denominators(results, symbol="k"):
    """Labels are primitive linear or root-free; basis denominators'
    linear factors are all labelled."""
    import sympy
    k = sympy.Symbol(symbol)
    errors = []
    for res in results:
        where = "%s w2=%d" % (res["preset"], res["weight2"])
        linear = set()
        for label in res["denominators"]:
            poly = sympy.Poly(sympy.sympify(label.replace("^", "**")), k)
            if poly.degree() == 1:
                if poly.content() != 1:
                    errors.append("%s: label %s not primitive" % (where, label))
                linear.add(_normal(poly))
            elif any(f.degree() == 1 for f, _ in poly.factor_list()[1]):
                errors.append("%s: label %s has a rational root"
                              % (where, label))
        for vec in res["basis"]:
            for coeff in vec.values():
                den = sympy.Poly(list(reversed(coeff.den)), k)
                for f, _ in den.factor_list()[1]:
                    if f.degree() == 1 and _normal(f) not in linear:
                        errors.append("%s: factor %s of a basis denominator "
                                      "is not labelled" % (where, f.as_expr()))
    return errors


def _normal(poly):
    """Coefficients of a primitive polynomial, leading coefficient > 0."""
    coeffs = poly.primitive()[1].all_coeffs()
    return tuple(-c for c in coeffs) if coeffs[0] < 0 else tuple(coeffs)


def check_specialization(symbolic, special, level):
    """Symbolic basis at k = level equals the basis computed at that level.

    Holds when no reported denominator vanishes at the level, so that
    elimination takes the same pivots; that is checked first.
    """
    import sympy
    k = sympy.Symbol("k")
    at = sympy.Rational(level.numerator, level.denominator)
    errors = []
    spec_of = {(r["preset"], r["weight2"]): r for r in special}
    for res in symbolic:
        where = "%s w2=%d" % (res["preset"], res["weight2"])
        for label in res["denominators"]:
            if sympy.sympify(label.replace("^", "**")).subs(k, at) == 0:
                errors.append("%s: label %s vanishes at %s"
                              % (where, label, level))
        spec = spec_of[(res["preset"], res["weight2"])]
        evaluated = [{key: c.evaluate(level) for key, c in vec.items()}
                     for vec in res["basis"]]
        evaluated = [{key: c for key, c in vec.items() if c}
                     for vec in evaluated]
        if evaluated != spec["basis"]:
            errors.append("%s: symbolic basis at k=%s differs from the "
                          "basis computed there" % (where, level))
    return errors


# ---------------------------------------------------------------------------
# verify suites


def check_suite(name, params, out):
    """The suite's output against the oracles that apply to it."""
    errors = []
    if out.get("status") != "pass" or out.get("witness"):
        errors.append("%s: status %s" % (name, out.get("status")))
    if name == "brst":
        max_w2 = params["max_weight"]
        want = character(params["preset"], max_w2)
        if out["h0_dims"] != want:
            errors.append("brst %s: H0 %s, character %s"
                          % (params["preset"], out["h0_dims"], want))
        if out["character"] != want:
            errors.append("brst %s: suite character %s, oracle %s"
                          % (params["preset"], out["character"], want))
        checks = {w["check"] for w in out["witness"]}
        for check in ("d0^2", "H^(n!=0) = 0"):
            if check in checks:
                errors.append("brst %s: %s fails" % (params["preset"], check))
    elif name == "wick":
        if sum(out["per_preset"].values()) != out["fields_sampled"] or \
                min(out["per_preset"].values()) == 0:
            errors.append("wick: fields sampled %s" % out["per_preset"])
    elif name == "wbn":
        if out["n"] != params["n"] or not out["top_coefficient"]:
            errors.append("wbn: malformed output %s" % out)
    return errors
