"""Report assembly: three trace computations and their comparison.

For an analyzed curve the trace of the tame monodromy operator is
computed three independent ways:

* ``trace_table``: Euler characteristic of the Serre class plus the error
  term, both straight from the per-type tables;
* ``trace_snc``: smooth-locus chi plus wild-locus chi on the SNC fiber of
  the computed type;
* ``trace_monodromy``: from the monodromy eigenvalues of the type.

The first two compute the same geometric quantity along different routes
and must agree unconditionally; a mismatch means a table bug, so it is a
hard failure.  The third agrees whenever the curve is
cohomologically tame; the trace formula itself holds exactly when the
error term vanishes.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import kodaira, motivic, snc
from .localfield import UnsupportedBackend
from .polys import PrimeField
from .tate import (
    KodairaType,
    LocalInvariants,
    ReductionClass,
    error_term_for,
    is_cohomologically_tame_for,
    reduction_class_for,
    tate_algorithm,
)
from .weierstrass import WeierstrassModel


class NotCoprime(ValueError):
    """Base-change degree shares a factor with the residue characteristic."""


class ParseError(ValueError):
    """Bad corpus or report input; carries a line number when available."""


class TableInconsistency(AssertionError):
    """The table route and the SNC route disagreed: a table bug."""


class Report(NamedTuple):
    field: str
    coefficients: dict
    type: KodairaType
    v_delta_min: int
    n_components: int
    reduction: ReductionClass
    p: int
    serre_class: str
    serre_euler: int
    tame: bool
    error_term: int
    trace_table: int
    trace_snc: int
    trace_monodromy: int
    holds: bool
    consistent: bool
    warnings: tuple = ()


def _build_report(field: str, coefficients: dict, inv: LocalInvariants) -> Report:
    serre = kodaira.serre_class(inv.type)
    serre_chi = motivic.euler(serre)
    e = error_term_for(inv.type, inv.p)
    tame = is_cohomologically_tame_for(inv.type, inv.p)
    via_table = serre_chi + e
    via_snc = snc.tame_trace(kodaira.snc_configuration(inv.type), inv.p)
    via_monodromy = kodaira.monodromy_trace(inv.type, 1)
    if via_table != via_snc:
        raise TableInconsistency(
            f"type {inv.type} at p={inv.p}: table trace {via_table} != snc trace {via_snc}"
        )
    consistent = not tame or via_monodromy == via_table
    return Report(
        field=field,
        coefficients=dict(coefficients),
        type=inv.type,
        v_delta_min=inv.v_delta_min,
        n_components=inv.n_components,
        reduction=inv.reduction_class,
        p=inv.p,
        serre_class=str(serre),
        serre_euler=serre_chi,
        tame=tame,
        error_term=e,
        trace_table=via_table,
        trace_snc=via_snc,
        trace_monodromy=via_monodromy,
        holds=(e == 0),
        consistent=consistent,
    )


def analyze(model: WeierstrassModel) -> Report:
    """Full local analysis of one integral Weierstrass model."""
    inv = tate_algorithm(model)
    coeffs = {
        name: str(value)
        for name, value in zip(("a1", "a2", "a3", "a4", "a6"), model.coefficients())
    }
    return _build_report(str(model.spec), coeffs, inv)


class BaseChangeCheck(NamedTuple):
    original: Report
    substituted: Report
    degree: int
    serre_euler_after: int
    predicted_trace: int
    agrees: bool


def base_change_check(model: WeierstrassModel, d: int) -> BaseChangeCheck:
    """Compare Tate on the t -> t^d model against the monodromy prediction.

    The Serre side of the base-changed curve is computed from scratch by
    running the classification on the substituted equation; the predicted
    value is the trace of the d-th monodromy power of the *original*
    type.  For a tame curve the two must agree for every d prime to p.
    """
    if model.spec.kind != "laurent":
        raise UnsupportedBackend("base change is only implemented for laurent backends")
    if d < 1:
        raise ValueError("base-change degree must be >= 1")
    p = model.spec.residue_char
    if p > 0 and gcd(d, p) != 1:
        raise NotCoprime(f"degree {d} is not prime to the residue characteristic {p}")
    original = analyze(model)
    substituted = analyze(model.base_change_substitute(d))
    predicted = kodaira.monodromy_trace(original.type, d)
    agrees = substituted.serre_euler == predicted
    if original.tame and not agrees:
        raise TableInconsistency(
            f"tame curve of type {original.type}: base change d={d} gave Serre side "
            f"{substituted.serre_euler}, monodromy predicts {predicted}"
        )
    return BaseChangeCheck(
        original=original,
        substituted=substituted,
        degree=d,
        serre_euler_after=substituted.serre_euler,
        predicted_trace=predicted,
        agrees=agrees,
    )


class TorsorReport(NamedTuple):
    jacobian_type: KodairaType
    p: int
    m: int
    serre_euler: int  # of the torsor: always 0 for m >= 2
    error_term: int
    scaled_smooth_chi: int
    holds: bool
    warnings: tuple


def torsor_analyze(jacobian_type: KodairaType, p: int, m: int) -> TorsorReport:
    """Trace-formula bookkeeping for an order-m torsor over a curve whose
    Jacobian has reduction type jacobian_type in residue characteristic p.

    The torsor has no rational point, so its Serre invariant vanishes and
    the error term is the whole Jacobian-side trace.  The reduction of
    the torsor is the Jacobian's with multiplicities scaled by m, which
    the SNC route cross-checks: no multiplicity-1 components survive.
    The trace formula holds exactly in residue characteristic zero or
    when the Jacobian is semi-stable.
    """
    if m < 1:
        raise ValueError("torsor order must be >= 1")
    serre_euler = motivic.euler(kodaira.serre_class(jacobian_type))
    e = error_term_for(jacobian_type, p)
    config = kodaira.snc_configuration(jacobian_type)
    if m == 1:
        return TorsorReport(
            jacobian_type=jacobian_type,
            p=p,
            m=1,
            serre_euler=serre_euler,
            error_term=e,
            scaled_smooth_chi=snc.smooth_locus_chi(config),
            holds=e == 0,
            warnings=(),
        )
    scaled_smooth = snc.smooth_locus_chi(snc.scale_multiplicities(config, m))
    if scaled_smooth != 0:
        raise TableInconsistency(
            f"scaled fiber of {jacobian_type} by {m} kept a multiplicity-1 stratum"
        )
    additive = reduction_class_for(jacobian_type) is ReductionClass.ADDITIVE
    warnings = []
    if additive and (p == 0 or gcd(m, p) == 1):
        warnings.append(
            "no torsor of order prime to p exists over an additive-reduction "
            "Jacobian (the Weil-Chatelet group is a p-group); this is a formal answer"
        )
    return TorsorReport(
        jacobian_type=jacobian_type,
        p=p,
        m=m,
        serre_euler=0,
        error_term=serre_euler + e,
        scaled_smooth_chi=scaled_smooth,
        holds=p == 0 or not additive,
        warnings=tuple(warnings),
    )


# ---- structured-text serialization -------------------------------------------

_REPORT_KEYS = (
    "field",
    "a1",
    "a2",
    "a3",
    "a4",
    "a6",
    "p",
    "type",
    "v_delta_min",
    "n_components",
    "reduction",
    "serre_class",
    "serre_euler",
    "tame",
    "error_term",
    "trace_table",
    "trace_snc",
    "trace_monodromy",
    "holds",
    "consistent",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_report(report: Report) -> str:
    values = {
        "field": report.field,
        **report.coefficients,
        "p": report.p,
        "type": report.type,
        "v_delta_min": report.v_delta_min,
        "n_components": report.n_components,
        "reduction": report.reduction.value,
        "serre_class": report.serre_class,
        "serre_euler": report.serre_euler,
        "tame": report.tame,
        "error_term": report.error_term,
        "trace_table": report.trace_table,
        "trace_snc": report.trace_snc,
        "trace_monodromy": report.trace_monodromy,
        "holds": report.holds,
        "consistent": report.consistent,
    }
    lines = [f"{key} = {_fmt(values[key])}" for key in _REPORT_KEYS]
    for warning in report.warnings:
        lines.append(f"warning = {warning}")
    return "\n".join(lines)


def format_torsor_report(report: TorsorReport) -> str:
    lines = [
        f"jac_type = {report.jacobian_type}",
        f"p = {report.p}",
        f"m = {report.m}",
        f"serre_euler = {report.serre_euler}",
        f"error_term = {report.error_term}",
        f"scaled_smooth_chi = {report.scaled_smooth_chi}",
        f"holds = {_fmt(report.holds)}",
    ]
    for warning in report.warnings:
        lines.append(f"warning = {warning}")
    return "\n".join(lines)


def parse_report_file(text: str) -> dict:
    """Read back a ``key = value`` report emitted by format_report."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def report_from_parsed(values: dict) -> tuple[KodairaType, int]:
    """The validated (type, p) of a parsed report, all torsor analysis needs.

    The Serre Euler characteristic, the error term and tameness are
    functions of (type, p), so a stored value that disagrees with the
    recomputed one, or a p that is neither 0 nor prime, is rejected.
    """
    try:
        type_ = KodairaType.parse(values["type"])
        p = int(values["p"])
        serre_euler = int(values["serre_euler"])
        e = int(values["error_term"])
    except KeyError as exc:
        raise ParseError(f"report file is missing key {exc}") from None
    except ValueError as exc:
        raise ParseError(f"report file has a bad value: {exc}") from None
    if p != 0:
        try:
            PrimeField(p)
        except ValueError as exc:
            raise ParseError(f"report file has p = {p}, not 0 or a prime: {exc}") from None
    tame = is_cohomologically_tame_for(type_, p)
    checks = (
        ("serre_euler", serre_euler, motivic.euler(kodaira.serre_class(type_))),
        ("error_term", e, error_term_for(type_, p)),
        ("tame", values.get("tame", _fmt(tame)), _fmt(tame)),
    )
    for key, stored, recomputed in checks:
        if stored != recomputed:
            raise ParseError(
                f"report file has {key} = {stored}, but type {type_} at p = {p} gives {recomputed}"
            )
    return type_, p


# ---- corpus runs ---------------------------------------------------------------

class CorpusSummary(NamedTuple):
    reports: tuple
    type_counts: dict
    holds_count: int
    fails_count: int
    consistency_failures: int
    errors: tuple = ()  # (curve number, "line N: ...") for each line that was refused

    @property
    def total(self) -> int:
        return len(self.reports) + len(self.errors)


def parse_corpus_line(line: str, lineno: int) -> WeierstrassModel:
    parts = [part.strip() for part in line.split(";")]
    if len(parts) != 6:
        raise ParseError(
            f"line {lineno}: expected '<fieldspec>;a1;a2;a3;a4;a6', got {len(parts)} fields"
        )
    try:
        return WeierstrassModel.from_literals(*parts)
    except Exception as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def corpus_run(text: str) -> CorpusSummary:
    """Analyze every curve in a corpus file; deterministic input ordering.

    A line that does not parse, or gives a singular curve, is recorded in
    ``errors`` and the run goes on with the next line.
    """
    reports, errors = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            model = parse_corpus_line(line, lineno)
        except ParseError as exc:
            errors.append((len(reports) + len(errors) + 1, str(exc)))
            continue
        reports.append(analyze(model))
    type_counts = {}
    for report in reports:
        key = str(report.type)
        type_counts[key] = type_counts.get(key, 0) + 1
    holds = sum(report.holds for report in reports)
    inconsistent = sum(not report.consistent for report in reports)
    return CorpusSummary(
        reports=tuple(reports),
        type_counts=dict(sorted(type_counts.items())),
        holds_count=holds,
        fails_count=len(reports) - holds,
        consistency_failures=inconsistent,
        errors=tuple(errors),
    )


def format_corpus_summary(summary: CorpusSummary) -> str:
    lines = []
    errors = dict(summary.errors)
    reports = iter(summary.reports)
    for index in range(1, summary.total + 1):
        lines.append(f"# curve {index}")
        lines.append(f"error = {errors[index]}" if index in errors else format_report(next(reports)))
        lines.append("")
    lines.append("# summary")
    lines.append(f"curves = {summary.total}")
    lines.append(
        "types = " + ",".join(f"{k}:{v}" for k, v in summary.type_counts.items())
    )
    lines.append(f"holds = {summary.holds_count}")
    lines.append(f"fails = {summary.fails_count}")
    lines.append(f"consistency_failures = {summary.consistency_failures}")
    if summary.errors:
        lines.append(f"errors = {len(summary.errors)}")
    return "\n".join(lines)
