"""Span tracing of vertexscreen's public functions, installed from outside.

The program itself is not instrumented: after each fresh import of
vertexscreen, ``Tracer.install`` replaces the public functions and methods
named in ``TRACED`` by wrappers that record one span per call (name, start,
end, parent span, operation id).  Spans are kept in memory and written to a
file when the run ends; every per-layer metric is derived from them, plus a
few counters taken at the same boundaries (matrix shapes, distinct
denominators, kernel sizes, memo sizes).

Bookkeeping that inspects arguments or results runs inside a
``trace.hook`` span, so it is not charged to the caller's self time.
"""

import gzip
import json
import sys
import time
from statistics import median

# (span name, module, attribute): a dotted attribute is a method on a class.
# A module-level function is replaced in every vertexscreen module that
# imported it, so calls through any of those names are seen.
TRACED = (
    ("scalars.denominator_labels", "scalars",
     "RationalFunctionField.denominator_labels"),
    ("scalars.denominator_labels", "scalars", "Rationals.denominator_labels"),
    ("scalars.denominator_roots", "scalars",
     "RationalFunctionField.denominator_roots"),
    ("scalars.denominator_roots", "scalars", "Rationals.denominator_roots"),
    ("scalars.p_rational_roots", "scalars", "p_rational_roots"),
    ("scalars.p_gcd", "scalars", "p_gcd"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.row_reduce", "linalg", "row_reduce"),
    ("linalg.matrix_rank", "linalg", "matrix_rank"),
    ("linalg.solve_in_span", "linalg", "solve_in_span"),
    ("vertexcalc.word_coeff_state", "vertexcalc", "Module.word_coeff_state"),
    ("vertexcalc.bracket", "vertexcalc", "bracket"),
    ("vertexcalc.normal_order", "vertexcalc", "normal_order"),
    ("vertexcalc.apply_field_coeff", "vertexcalc", "apply_field_coeff"),
    ("vertexcalc.graded_basis", "vertexcalc", "graded_basis"),
    ("screening.apply", "screening", "ScreeningOp.apply"),
    ("screening.s_alpha_apply", "screening",
     "ScreeningContext.s_alpha_apply"),
    ("screening.kernel_basis", "screening", "kernel_basis"),
    ("screening.build_screenings", "screening", "exponential_screenings"),
    ("screening.build_screenings", "screening", "generic_screenings"),
    ("walgebras.d0_state", "walgebras", "BRSTComplex.d0_state"),
    ("walgebras.cohomology_dims", "walgebras", "BRSTComplex.cohomology_dims"),
    ("walgebras.verify_wbn_screening", "walgebras", "verify_wbn_screening"),
    ("walgebras.build_complex", "walgebras", "build_complex"),
    ("verify.check_skew", "verify", "check_skew"),
    ("verify.check_jacobi", "verify", "check_jacobi"),
    ("verify.check_wick", "verify", "check_wick"),
    ("verify.check_commutator", "verify", "check_commutator"),
    ("presets.preset_context", "presets", "preset_context"),
    ("presets.build_preset", "presets", "build_preset"),
)

SPAN_NAMES = sorted({name for name, _, _ in TRACED})
HOOK = "trace.hook"

# Counters derived from arguments and results, with their units.
COUNTERS = (
    ("scalars.denominators.distinct", "count"),
    ("linalg.rows.max", "count"),
    ("linalg.cols.max", "count"),
    ("linalg.rank.total", "count"),
    ("linalg.entry_degree.max", "degree"),
    ("linalg.coeff_bits.max", "bits"),
    ("screening.ambient_dim.total", "count"),
    ("screening.kernel_dim.total", "count"),
    ("vertexcalc.mode_memo.entries", "count"),
    ("vertexcalc.word_memo.entries", "count"),
    ("vertexcalc.translate_memo.entries", "count"),
    ("walgebras.d0_memo.entries", "count"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPAN_NAMES:
        out[name + ".s"] = "s"
        out[name + ".calls"] = "count"
    out["screening.kernel_basis.self_s"] = "s"
    out.update(COUNTERS)
    out["trace.solve_s"] = "s"
    out["trace.spans"] = "count"
    return out


def _entry_size(x):
    """(degree, coefficient bits) of a Q or Q(k) matrix entry."""
    if hasattr(x, "den"):
        return (max(len(x.num), len(x.den)) - 1,
                max(abs(c).bit_length() for c in x.num + x.den))
    return 0, max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Forget the spans and counters of the previous round."""
        self.spans = []
        self.stack = []
        self.active = {}
        self.op = -1
        self.counters = dict.fromkeys((name for name, _ in COUNTERS), 0)
        self.denominators = set()
        self.modules = []
        self.complexes = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """fn wrapped to record a span per call.

        before(args) and after(result) run in their own hook spans.
        """
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(before, args)
            spans, stack, active = tracer.spans, tracer.stack, tracer.active
            idx = len(spans)
            parent = stack[-1] if stack else -1
            depth = active.get(nid, 0)
            spans.append(None)
            stack.append(idx)
            active[nid] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] = depth
                spans[idx] = (nid, t0, t1, parent, tracer.op, depth > 0)
            if after is not None:
                tracer._hook(after, result)
            return result

        return wrapper

    def _hook(self, fn, value):
        spans = self.spans
        parent = self.stack[-1] if self.stack else -1
        t0 = time.perf_counter()
        fn(value)
        spans.append((self._id(HOOK), t0, time.perf_counter(), parent,
                      self.op, False))

    def run_op(self, op_id, fn, *args):
        """Call fn as operation op_id, under a root span of its own."""
        self.op = op_id
        try:
            return self.span("bench.operation", fn)(*args)
        finally:
            self.op = -1

    # -- counters ----------------------------------------------------------------

    def _count_den(self, args):
        x = args[1]
        if hasattr(x, "den"):
            self.denominators.add(x.den)

    def _matrix_shape(self, args):
        rows, ncols = args[0], args[1]
        c = self.counters
        c["linalg.rows.max"] = max(c["linalg.rows.max"], len(rows))
        c["linalg.cols.max"] = max(c["linalg.cols.max"], ncols)
        deg, bits = c["linalg.entry_degree.max"], c["linalg.coeff_bits.max"]
        for row in rows:
            for x in row:
                if x:
                    d, b = _entry_size(x)
                    deg, bits = max(deg, d), max(bits, b)
        c["linalg.entry_degree.max"], c["linalg.coeff_bits.max"] = deg, bits

    def _rank(self, result):
        self.counters["linalg.rank.total"] += len(result[1])

    def _kernel_sizes(self, rep):
        self.counters["screening.ambient_dim.total"] += rep.ambient_dim
        self.counters["screening.kernel_dim.total"] += rep.kernel_dim

    # -- installation --------------------------------------------------------------

    def install(self):
        """Wrap the traced functions of the vertexscreen now in sys.modules."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "vertexscreen" or name.startswith("vertexscreen.")}
        hooks = {
            "scalars.denominator_labels": (self._count_den, None),
            "scalars.denominator_roots": (self._count_den, None),
            "linalg.row_reduce": (self._matrix_shape, self._rank),
            "screening.kernel_basis": (None, self._kernel_sizes),
        }
        for name, modname, attr in TRACED:
            home = pkg["vertexscreen." + modname]
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(home, clsname)
                setattr(cls, meth,
                        self.span(name, getattr(cls, meth), before, after))
                continue
            orig = getattr(home, attr)
            wrapped = self.span(name, orig, before, after)
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        self._register_on_init(pkg["vertexscreen.vertexcalc"].Module,
                               "modules")
        self._register_on_init(pkg["vertexscreen.walgebras"].BRSTComplex,
                               "complexes")

    def _register_on_init(self, cls, registry):
        """Keep every new instance of cls, to read its memo sizes later."""
        orig = cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            getattr(tracer, registry).append(obj)

        cls.__init__ = init

    # -- metrics ---------------------------------------------------------------------

    def round_metrics(self, solve_s, factor):
        """Per-layer metrics of the round whose spans are held now; span
        times are scaled by the round's host speed factor, like solve_s."""
        busy = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        child = [0.0] * len(self.spans)
        names = self.names
        for nid, t0, t1, parent, _op, nested in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            name = names[nid]
            if name in calls:
                calls[name] += 1
                if not nested:
                    busy[name] += t1 - t0
        kb = self._ids.get("screening.kernel_basis")
        self_s = sum((t1 - t0 - child[i]
                      for i, (nid, t0, t1, _p, _o, _n) in enumerate(self.spans)
                      if nid == kb), 0.0)
        out = {}
        for name in SPAN_NAMES:
            out[name + ".s"] = busy[name] * factor
            out[name + ".calls"] = calls[name]
        out["screening.kernel_basis.self_s"] = self_s * factor
        counters = dict(self.counters)
        counters["scalars.denominators.distinct"] = len(self.denominators)
        counters["vertexcalc.mode_memo.entries"] = sum(
            len(m._mode_memo) for m in self.modules)
        counters["vertexcalc.word_memo.entries"] = sum(
            len(m._word_memo) for m in self.modules)
        counters["vertexcalc.translate_memo.entries"] = sum(
            len(m._translate_memo) for m in self.modules)
        counters["walgebras.d0_memo.entries"] = sum(
            len(b._d0_memo) for b in self.complexes)
        out.update(counters)
        out["trace.solve_s"] = solve_s
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path, round_index):
        """Append the held spans, tagged with their round, to a gzip file."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            if round_index == 0:
                fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, t0, t1, parent, op, _nested in self.spans:
                fh.write("%d %d %.9f %.9f %d %d\n"
                         % (round_index, nid, t0, t1, parent, op))


def median_metrics(per_round):
    """Median over rounds of each metric (counts repeat exactly)."""
    return {name: median(r[name] for r in per_round) for name in per_round[0]}
