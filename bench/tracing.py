"""Spans around repcount's public functions, recorded from outside the package.

`Tracer.install` wraps each traced function in every module that binds it:
`decide` imports `buchberger`, `saturate_principal` and the rest by name, so
replacing `repcount.groebner.buchberger` alone would miss its calls from
`decide`.  Methods are wrapped on their class.

A span is (name, start, end, parent, trace id).  The trace id is the case
being solved.  A span's self time is its duration minus the part of it that
its child spans cover.  Spans live in memory only for the case they belong
to: `Tracer.flush` folds them into per-name totals after every case, which
keeps memory flat on cases with 10^5 spans.

Hot functions (`Polynomial.__mul__`, `Matrix.__mul__`,
`DivisorTable.normal_form`) get full spans too: they see at most ~10^5
calls per case, and the wrapper costs about a microsecond a call, a few
percent of a case.  `trace.overhead_s` reports the total cost of tracing,
so a change that makes these calls cheaper will show whether the spans
start to distort the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs, wrapped wherever a repcount module binds them.
FUNCTIONS = (
    ("repcount.cli", "main"),
    ("repcount.presentation", "parse_presentation"),
    ("repcount.decide", "run_pipeline"),
    ("repcount.decide", "collapsed_certificate_values"),
    ("repcount.decide", "minimal_polynomial"),
    ("repcount.genmat", "relations_ideal"),
    ("repcount.genmat", "trace_generators"),
    ("repcount.groebner", "buchberger"),
    ("repcount.groebner", "saturate_principal"),
    ("repcount.groebner", "intersect"),
    ("repcount.groebner", "ideal_quotient"),
    ("repcount.poly", "reduce"),
    ("repcount.matrices", "trace_of_product"),
    ("repcount.linalg", "matrix_rank"),
    ("repcount.count", "count_from_run"),
    ("repcount.count", "build_quotient_algebra"),
    ("repcount.count", "trace_form"),
)

# (module, class, method) triples, wrapped on the class.
METHODS = (
    ("repcount.poly", "Polynomial", "__mul__"),
    ("repcount.poly", "DivisorTable", "normal_form"),
    ("repcount.matrices", "Matrix", "__mul__"),
    ("repcount.linalg", "PolyEchelon", "insert"),
)

HOOK_SPAN = "trace.hook"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name, start, end, parent, trace_id):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, or -1
        self.trace_id = trace_id


def self_times(spans) -> dict:
    """name -> [calls, total seconds, self seconds] over a list of spans.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span; children may overlap each other.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict = {}
    for index, span in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(index, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        entry = out.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += span.end - span.start - covered
    return out


def _span_name(module: str, qualname: str) -> str:
    return "%s.%s" % (module.split(".", 1)[1], qualname)


def max_coeff_bits(polys) -> int:
    """Largest numerator or denominator bit length over the coefficients."""
    best = 0
    for p in polys:
        for c in p.terms.values():
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Collects spans and per-layer quantities while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.trace_id = None
        self.totals: dict = {}  # span name -> [calls, total s, self s]
        self.counters = defaultdict(float)
        self.max_coeff_bits = 0  # over every basis buchberger returned
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.trace_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                # The hook's own cost is a child span, so no layer is charged for it.
                hook = Span(HOOK_SPAN, clock(), 0.0, stack[-1] if stack else -1, self.trace_id)
                spans.append(hook)
                after(self, result)
                hook.end = clock()
            return result

        return traced

    def flush(self) -> None:
        """Fold the finished case's spans into the totals and drop them."""
        if self.stack:
            raise RuntimeError("flush with open spans")
        for name, (calls, total, own) in self_times(self.spans).items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for span in self.spans:
            if (span.name == "groebner.buchberger" and span.parent >= 0
                    and self.spans[span.parent].name == "decide.minimal_polynomial"):
                self.counters["decide.minimal_polynomial.elimination_fallbacks"] += 1
        self.spans.clear()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "repcount" or name.startswith("repcount.")}
        for module, attr in FUNCTIONS:
            original = getattr(modules[module], attr)
            wrapped = self.wrap(_span_name(module, attr), original, _HOOKS.get(attr))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for module, cls_name, attr in METHODS:
            cls = getattr(modules[module], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(_span_name(module, "%s.%s" % (cls_name, attr)),
                                         original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- hooks: quantities read off return values ---------------------------------


def _after_run_pipeline(tracer: Tracer, run) -> None:
    metrics = run.verdict.metrics
    for stage, seconds in metrics.timings.items():
        tracer.counters["stage.%s_s" % stage] += seconds
    tracer.counters["locus.multipliers"] += metrics.multipliers
    tracer.counters["locus.values"] += metrics.certificate_values


def _after_certificates(tracer: Tracer, result) -> None:
    values, candidates = result
    tracer.counters["certificates.candidates"] += candidates
    tracer.counters["certificates.values"] += len(values)


def _after_buchberger(tracer: Tracer, basis) -> None:
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, max_coeff_bits(basis.elements))


def _after_count(tracer: Tracer, report) -> None:
    tracer.counters["count.algebra_dim"] += report.algebra_dimension


_HOOKS = {
    "run_pipeline": _after_run_pipeline,
    "collapsed_certificate_values": _after_certificates,
    "buchberger": _after_buchberger,
    "count_from_run": _after_count,
}


# -- per-layer metrics ---------------------------------------------------------

# (metric, unit, span name, field): field 0 is calls, 2 is self seconds.
_SPAN_METRICS = (
    ("certificates.self_s", "s", "decide.collapsed_certificate_values", 2),
    ("groebner.buchberger.calls", "count", "groebner.buchberger", 0),
    ("groebner.buchberger.self_s", "s", "groebner.buchberger", 2),
    ("groebner.saturate_principal.calls", "count", "groebner.saturate_principal", 0),
    ("groebner.saturate_principal.self_s", "s", "groebner.saturate_principal", 2),
    ("poly.DivisorTable.normal_form.calls", "count", "poly.DivisorTable.normal_form", 0),
    ("poly.DivisorTable.normal_form.self_s", "s", "poly.DivisorTable.normal_form", 2),
    ("poly.reduce.calls", "count", "poly.reduce", 0),
    ("poly.Polynomial.__mul__.calls", "count", "poly.Polynomial.__mul__", 0),
    ("matrices.Matrix.__mul__.calls", "count", "matrices.Matrix.__mul__", 0),
    ("matrices.trace_of_product.calls", "count", "matrices.trace_of_product", 0),
    ("matrices.trace_of_product.self_s", "s", "matrices.trace_of_product", 2),
    ("linalg.PolyEchelon.insert.calls", "count", "linalg.PolyEchelon.insert", 0),
    ("linalg.PolyEchelon.insert.self_s", "s", "linalg.PolyEchelon.insert", 2),
    ("linalg.matrix_rank.self_s", "s", "linalg.matrix_rank", 2),
    ("count.build_quotient_algebra.self_s", "s", "count.build_quotient_algebra", 2),
    ("count.trace_form.self_s", "s", "count.trace_form", 2),
    ("decide.minimal_polynomial.calls", "count", "decide.minimal_polynomial", 0),
    ("decide.minimal_polynomial.self_s", "s", "decide.minimal_polynomial", 2),
    ("genmat.relations_ideal.self_s", "s", "genmat.relations_ideal", 2),
    ("genmat.trace_generators.self_s", "s", "genmat.trace_generators", 2),
    ("presentation.parse_presentation.self_s", "s", "presentation.parse_presentation", 2),
    ("cli.self_s", "s", "cli.main", 2),
)

_COUNTER_METRICS = (
    ("stage.relations_s", "s"),
    ("stage.certificates_s", "s"),
    ("stage.locus_s", "s"),
    ("stage.algebraic_s", "s"),
    ("certificates.candidates", "count"),
    ("certificates.values", "count"),
    ("locus.multipliers", "count"),
    ("count.algebra_dim", "count"),
    ("decide.minimal_polynomial.elimination_fallbacks", "count"),
)


def per_layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-layer metrics of one pass over the case list: metric -> (value, unit).

    Counts and times are totals over the traced passes divided by their
    number; the maximum coefficient size is the maximum over all of them.
    """
    out = {}
    for metric, unit in _COUNTER_METRICS:
        out[metric] = (tracer.counters[metric] / passes, unit)
    out["stage.count_s"] = (tracer.totals.get("count.count_from_run", [0, 0.0, 0.0])[1] / passes,
                            "s")
    for metric, unit, span, field in _SPAN_METRICS:
        out[metric] = (tracer.totals.get(span, [0, 0.0, 0.0])[field] / passes, unit)
    candidates = tracer.counters["certificates.candidates"]
    values = tracer.counters["certificates.values"]
    out["certificates.useful_ratio"] = (values / candidates if candidates else 0.0, "ratio")
    locus_values = tracer.counters["locus.values"]
    out["locus.multipliers_per_value"] = (
        tracer.counters["locus.multipliers"] / locus_values if locus_values else 0.0, "ratio")
    out["groebner.buchberger.max_coeff_bits"] = (tracer.max_coeff_bits, "bits")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
