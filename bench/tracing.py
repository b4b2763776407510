"""Spans and counters around the program's module boundaries, from outside.

Nothing in ``src/`` changes: each traced name is replaced where its
caller looks it up (``serretrace.pipeline.tate_algorithm``,
``serretrace.tate.transform``, ``Poly.gcd_monic`` on its class, ...), and
the modules ``pipeline`` reaches through an attribute (``kodaira``,
``snc``, ``motivic``) are replaced in its namespace by a stand-in whose
functions are wrapped, so only the calls from ``pipeline`` are timed.

Coarse boundaries record a span (name, start, end, parent, request), kept
in memory and written out at the end.  The hot leaf calls in ``polys`` and
the element operations are only counted (and ``gcd_monic`` timed), which
keeps the span list small.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from fractions import Fraction

from serretrace import kodaira, localfield, motivic, pipeline, polys, snc, tate, weierstrass

_NAME, _START, _END, _PARENT = range(4)


class _ModuleProxy:
    """Stands in for a module in one caller's namespace; its functions are wrapped."""

    def __init__(self, module, wrap):
        self._module = module
        self._prefix = module.__name__.rsplit(".", 1)[-1]
        self._wrap = wrap
        self._wrapped = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not inspect.isfunction(value):
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._wrap(f"{self._prefix}.{name}", value)
        return self._wrapped[name]


def _unit(name) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    return {"polys.max_degree": "degree", "polys.max_coeff_bits": "bits"}.get(name, "count")


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.bit_length()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request]
        self._open = []
        self.request = -1
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.max_degree = 0
        self.max_coeff_bits = 0
        self._patches = []

    # ---- wrappers ---------------------------------------------------------------

    def span(self, name, fn, before=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            index = len(spans)
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.request]
            spans.append(record)
            open_.append(index)
            record[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                open_.pop()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timer(self, name, fn):
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start

        return wrapper

    def request_wrapper(self, fn):
        """Wrap one whole verification; its spans share a request number."""
        inner = self.span("verify", fn)

        def wrapper(*args, **kwargs):
            self.request += 1
            return inner(*args, **kwargs)

        return wrapper

    # ---- installing ---------------------------------------------------------------

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rational_function_init(self, init):
        counts = self.counts

        def wrapper(rf, num, den):
            counts["polys.RationalFunction.new"] += 1
            init(rf, num, den)
            coeffs = rf.num.coeffs + rf.den.coeffs
            self.max_degree = max(self.max_degree, len(rf.num.coeffs) - 1, len(rf.den.coeffs) - 1)
            self.max_coeff_bits = max(self.max_coeff_bits, max(map(_coeff_bits, coeffs), default=0))

        return wrapper

    def _before_invariants(self, model):
        self.counts["weierstrass.invariants.computed"] += model._invariants is None

    def _before_transform(self, model, u, *_):
        if isinstance(u, localfield.ValuedElement) and u.valuation() > 0:
            self.counts["tate.rescales"] += 1

    def install(self):
        patch = self._patch
        # polys: hot leaves, counted on their classes.
        patch(polys.RationalFunction, "__init__",
              self._rational_function_init(polys.RationalFunction.__init__))
        patch(polys.Poly, "gcd_monic", self.timer("polys.Poly.gcd_monic", polys.Poly.gcd_monic))
        patch(polys.Poly, "__mul__", self.counter("polys.Poly.mul", polys.Poly.__mul__))
        # localfield: element operations counted, literal parsing timed.
        element = localfield.ValuedElement
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            patch(element, op, self.counter("localfield.ValuedElement.ops", getattr(element, op)))
        spec_parse = localfield.LocalFieldSpec.__dict__["parse"].__func__
        patch(localfield.LocalFieldSpec, "parse",
              classmethod(self.span("localfield.LocalFieldSpec.parse", spec_parse)))
        patch(weierstrass, "parse_element",
              self.span("localfield.parse_element", weierstrass.parse_element))
        # weierstrass: models, invariants (from the constructor and from tate), transforms.
        patch(weierstrass.WeierstrassModel, "__init__",
              self.counter("weierstrass.models_built", weierstrass.WeierstrassModel.__init__))
        invariants = self.span("weierstrass.invariants", weierstrass.invariants,
                               before=self._before_invariants)
        patch(weierstrass, "invariants", invariants)
        patch(tate, "invariants", invariants)
        patch(tate, "transform",
              self.span("weierstrass.transform", tate.transform, before=self._before_transform))
        # tate and the report tables, as pipeline reaches them.
        patch(pipeline, "tate_algorithm", self.span("tate.tate_algorithm", pipeline.tate_algorithm))
        for module in (kodaira, snc, motivic):
            short = module.__name__.rsplit(".", 1)[-1]
            patch(pipeline, short, _ModuleProxy(module, self.span))
        # pipeline: the benchmark's own calls, and analyze inside base_change_check.
        for name in ("parse_corpus_line", "analyze", "base_change_check", "format_report"):
            patch(pipeline, name, self.span(f"pipeline.{name}", getattr(pipeline, name)))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ---- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-module totals over every span and counter recorded, as
        {name: (value, unit)}."""
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for record in self.spans:
            duration = record[_END] - record[_START]
            name = record[_NAME]
            total[name] += duration
            own[name] += duration
            calls[name] += 1
            if record[_PARENT] >= 0:
                own[self.spans[record[_PARENT]][_NAME]] -= duration
        by_module = defaultdict(float)
        for name, seconds in total.items():
            module = name.split(".", 1)[0]
            if module in ("kodaira", "snc", "motivic"):
                by_module[module] += seconds
        c = self.counts
        values = {
            "polys.RationalFunction.new": c["polys.RationalFunction.new"],
            "polys.Poly.gcd_monic.calls": c["polys.Poly.gcd_monic"],
            "polys.Poly.gcd_monic.s": self.seconds["polys.Poly.gcd_monic"],
            "polys.Poly.mul.calls": c["polys.Poly.mul"],
            "polys.max_degree": self.max_degree,
            "polys.max_coeff_bits": self.max_coeff_bits,
            "localfield.parse_element.s": total["localfield.parse_element"],
            "localfield.parse_element.calls": calls["localfield.parse_element"],
            "localfield.LocalFieldSpec.parse.s": total["localfield.LocalFieldSpec.parse"],
            "localfield.ValuedElement.ops": c["localfield.ValuedElement.ops"],
            "weierstrass.models_built": c["weierstrass.models_built"],
            "weierstrass.invariants.calls": calls["weierstrass.invariants"],
            "weierstrass.invariants.computed": c["weierstrass.invariants.computed"],
            "weierstrass.invariants.s": total["weierstrass.invariants"],
            "weierstrass.transform.calls": calls["weierstrass.transform"],
            "weierstrass.transform.s": total["weierstrass.transform"],
            "tate.tate_algorithm.s": total["tate.tate_algorithm"],
            "tate.tate_algorithm.self_s": own["tate.tate_algorithm"],
            "tate.rescales": c["tate.rescales"],
            "pipeline.parse_corpus_line.s": total["pipeline.parse_corpus_line"],
            "pipeline.analyze.self_s": own["pipeline.analyze"],
            "pipeline.base_change_check.self_s": own["pipeline.base_change_check"],
            "pipeline.format_report.s": total["pipeline.format_report"],
            "kodaira.s": by_module["kodaira"],
            "snc.s": by_module["snc"],
            "motivic.s": by_module["motivic"],
        }
        return {name: (value, _unit(name)) for name, value in values.items()}

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
