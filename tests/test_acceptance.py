"""Acceptance criteria, one test per criterion, every identity exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import random

import pytest

from corpus_data import EXPECTED, TYPE_REPRESENTATIVES, corpus_lines, corpus_text

from serretrace import kodaira, motivic, snc
from serretrace.localfield import ValuedElement, parse_element
from serretrace.motivic import (
    GrothElement,
    IntPoly,
    QuotientVerdict,
    eq_mod_L_minus_1,
    euler,
    poincare,
)
from serretrace.pipeline import analyze, base_change_check, corpus_run, torsor_analyze
from serretrace.snc import Component, LocalMarking, SncConfiguration, local_trace
from serretrace.tate import KodairaType, error_term_for, tate_algorithm
from serretrace.weierstrass import WeierstrassModel, invariants, transform

ALL_TYPES = kodaira.atlas_types(4)


def _passed(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def curve(line: str) -> WeierstrassModel:
    return WeierstrassModel.from_literals(*line.split(";"))


def test_criterion_1_error_term_table():
    """Error-term values at p = 2, 3, equal to the wild-locus chi."""
    table = {
        ("II", 2): 1, ("II*", 2): 1, ("III", 2): 0, ("III*", 2): 0,
        ("I0*", 2): -2, ("I1*", 2): -2, ("I2*", 2): -2, ("I3*", 2): -2, ("I4*", 2): -2,
        ("II", 3): 1, ("II*", 3): 1, ("IV", 3): -1, ("IV*", 3): -1,
    }
    checked = 0
    for type_ in ALL_TYPES:
        for p in (2, 3):
            expected = table.get((str(type_), p), 0)
            assert error_term_for(type_, p) == expected, f"{type_} at p={p}"
            assert snc.wild_locus_chi(kodaira.snc_configuration(type_), p) == expected
            checked += 1
    _passed(1, f"error-term table reproduced and equal to wild-locus chi ({checked} pairs)")


def test_criterion_2_master_identity():
    """euler(serre_class) + error_term = tame_trace for all types and p."""
    cases = 0
    for type_ in ALL_TYPES:
        config = kodaira.snc_configuration(type_)
        serre_chi = euler(kodaira.serre_class(type_))
        for p in (0, 2, 3, 5, 7):
            assert serre_chi + error_term_for(type_, p) == snc.tame_trace(config, p)
            cases += 1
    assert cases >= 50
    _passed(2, f"master identity exact in {cases} cases")


def test_criterion_3_serre_values_and_quotient_certificates():
    s_values = {
        "I0": 0, "I1": 0, "I2": 0, "I3": 0, "I4": 0,
        "II": 1, "II*": 1, "III": 2, "III*": 2, "IV": 3, "IV*": 3,
        "I0*": 4, "I1*": 4, "I2*": 4, "I3*": 4, "I4*": 4,
    }
    for type_ in ALL_TYPES:
        assert euler(kodaira.serre_class(type_)) == s_values[str(type_)]
    for n in range(5):
        comparison = eq_mod_L_minus_1(GrothElement.curve(1), GrothElement.from_int(n))
        assert comparison.verdict == QuotientVerdict.DISTINCT, f"C(1) vs {n}"
    _passed(3, "S-values per type and genus-1 curve distinct from 0..4 mod (L-1)")


def test_criterion_4_char_zero_corpus_all_hold():
    summary = corpus_run(corpus_text())
    p0 = [r for r in summary.reports if r.p == 0]
    assert p0, "corpus has characteristic-zero entries"
    for report in p0:
        assert report.holds, f"{report.coefficients} should satisfy the trace formula"
        assert report.trace_table == report.trace_snc == report.trace_monodromy
    _passed(4, f"trace formula holds with three-way agreement on all {len(p0)} p=0 curves")


SWEEP_CURVES = [
    "laurent:Q;0;0;0;0;t",      # II
    "laurent:Q;0;0;0;0;t^2",    # IV
    "laurent:Q;0;0;0;t;0",      # III
    "laurent:Q;0;0;0;t^2;0",    # I0*
    "laurent:Q;0;0;0;t^3;0",    # III*
    "laurent:Q;1;0;0;0;t",      # I1
    "laurent:Q;1;0;0;0;t^2",    # I2
    "laurent:Q;1;0;0;0;t^3",    # I3
    "laurent:Q;1;0;0;0;t^4",    # I4
    "laurent:Q;1;0;0;0;t^5",    # I5
]


def test_criterion_5_base_change_sweep():
    """Serre side of X x K(d) from Tate equals the monodromy trace, d = 1..12."""
    cases = 0
    for line in SWEEP_CURVES:
        model = curve(line)
        original = analyze(model)
        for d in range(1, 13):
            check = base_change_check(model, d)
            assert check.agrees, f"{line} at d={d}"
            assert check.predicted_trace == kodaira.monodromy_trace(original.type, d)
            cases += 1
    assert cases == 120
    _passed(5, f"base-change sweep exact in {cases} cases")


def _random_integral(spec, rng):
    if spec.kind == "padic":
        return ValuedElement.from_int(spec, rng.randint(-5, 5))
    hi = spec.residue_char - 1 if spec.residue_char else 2
    lo = 0 if spec.residue_char else -2
    text = "+".join(f"{rng.randint(lo, hi)}*t^{k}" for k in range(2)) or "0"
    return parse_element(spec, text)


def _random_unit(spec, rng):
    if spec.kind == "padic":
        p = spec.residue_field.p
        return ValuedElement.from_int(spec, rng.choice([1, -1, p + 1, 2 * p - 1]))
    head = rng.choice([1, -1, 2]) if spec.residue_char == 0 else rng.randint(1, spec.residue_char - 1)
    tail = rng.randint(0, max(spec.residue_char - 1, 1))
    return parse_element(spec, f"{head}+{tail}*t")


def test_criterion_6_tate_regression():
    """Corpus triples, idempotence, 12-divisibility, 200 random transforms."""
    lines = corpus_lines()
    assert len(lines) == 30
    for (lineno, line), (type_text, v_min, n) in zip(lines, EXPECTED):
        W = curve(line)
        inv = tate_algorithm(W)
        assert (str(inv.type), inv.v_delta_min, inv.n_components) == (type_text, v_min, n), (
            f"line {lineno}: {line}"
        )
        again = tate_algorithm(inv.minimal_model)
        assert (again.type, again.v_delta_min) == (inv.type, inv.v_delta_min)
        drop = invariants(W).delta.valuation() - inv.v_delta_min
        assert drop >= 0 and drop % 12 == 0

    rng = random.Random(8128)
    transforms_checked = 0
    while transforms_checked < 200:
        lineno, line = lines[transforms_checked % len(lines)]
        W = curve(line)
        expected_type, expected_v, expected_n = EXPECTED[transforms_checked % len(lines)]
        u = _random_unit(W.spec, rng)
        r, s, t = (_random_integral(W.spec, rng) for _ in range(3))
        W2 = transform(W, u, r, s, t)
        inv2 = tate_algorithm(W2)
        assert (str(inv2.type), inv2.v_delta_min, inv2.n_components) == (
            expected_type, expected_v, expected_n,
        ), f"line {lineno} under ({u}; {r}; {s}; {t})"
        drop = invariants(W2).delta.valuation() - inv2.v_delta_min
        assert drop >= 0 and drop % 12 == 0
        transforms_checked += 1
    _passed(6, "corpus regression, idempotence and 200 unimodular transforms exact")


def test_criterion_7_torsor_counterexample_and_semistable_case():
    jac = analyze(curve("padic:5;0;0;0;25;0"))
    assert str(jac.type) == "I0*" and jac.tame
    report = torsor_analyze(jac.type, jac.p, 2)
    assert report.serre_euler == 0
    assert report.error_term == 4
    assert not report.holds

    for nu, line in ((1, "laurent:Q;1;0;0;0;t"), (3, "laurent:F3;1;0;0;0;t")):
        jac_mult = analyze(curve(line))
        assert jac_mult.type.kind in ("I",)
        for m in (2, 3, 4):
            t_report = torsor_analyze(jac_mult.type, jac_mult.p, m)
            assert t_report.error_term == 0
            assert t_report.holds
    _passed(7, "torsor over tame additive Jacobian fails with e = 4; multiplicative torsors hold")


def test_criterion_8_local_chains():
    for n in range(1, 7):
        size = n - 1
        comps = [Component(f"X{i}", 1) for i in range(size)]
        edges = [(f"X{i}", f"X{i+1}") for i in range(size - 1)]
        config = SncConfiguration(comps, edges)
        external = {f"X{i}": (i == 0) + (i == size - 1) for i in range(size)}
        chi_serre, trace = local_trace(config, LocalMarking(external), 2)
        if n >= 2:
            assert (chi_serre, trace) == (0, 0), f"A_{n-1} chain"
        else:
            assert (chi_serre, trace) == (0, 0)
    point_config = SncConfiguration([Component("X", 1)], [])
    assert local_trace(point_config, LocalMarking({"X": 1}), 2) == (1, 1)
    _passed(8, "A_{n-1} chains give 0 = 0 for n in 1..6; smooth point gives 1 = 1")


_ATOMS = [
    lambda rng: GrothElement.lefschetz(),
    lambda rng: GrothElement.gm(),
    lambda rng: GrothElement.proj_space(rng.randint(1, 4)),
    lambda rng: GrothElement.curve(rng.randint(0, 3)),
    lambda rng: GrothElement.point(),
]


def _random_groth(rng):
    out = GrothElement.zero()
    for _ in range(rng.randint(0, 4)):
        term = GrothElement.from_int(rng.randint(-5, 5))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(_ATOMS)(rng)
        out = out + term
    return out


def test_criterion_9_poincare_realization():
    rng = random.Random(161803)
    for _ in range(500):
        a = _random_groth(rng)
        b = _random_groth(rng)
        assert poincare(a + b) == poincare(a) + poincare(b)
        assert poincare(a * b) == poincare(a) * poincare(b)
        assert poincare(a).evaluate(1) == euler(a)
    assert poincare(GrothElement.lefschetz()) == IntPoly((0, 0, 1))
    assert poincare(GrothElement.gm()) == IntPoly((-1, 0, 1))
    for n in range(1, 11):
        poly = poincare(GrothElement.proj_space(n))
        assert poly.degree() == 2 * n and poly.leading() == 1
    _passed(9, "ring-morphism laws on 500 random pairs; P(L), P(Gm), degree law exact")


def test_criterion_10_snc_self_validation():
    classical = {
        "I0": 0, "I1": 1, "I2": 2, "I3": 3, "I4": 4,
        "II": 2, "III": 3, "IV": 4,
        "I0*": 6, "I1*": 7, "I2*": 8, "I3*": 9, "I4*": 10,
        "IV*": 8, "III*": 9, "II*": 10,
    }
    blowups = {"I1": 1, "II": 3, "III": 2, "IV": 1}
    for type_ in ALL_TYPES:
        config = kodaira.snc_configuration(type_)
        expected = classical[str(type_)] + blowups.get(str(type_), 0)
        assert snc.chi_fiber(config) == expected, str(type_)
    _passed(10, "chi of every SNC table equals classical Euler number plus blow-ups")


def test_type_representatives_reproduce_error_table_via_tate():
    """Supplement: the 10 representatives x p in {0,2,3} recover the e-table."""
    for p, table in TYPE_REPRESENTATIVES.items():
        for type_text, line in table.items():
            report = analyze(curve(line))
            assert str(report.type) == type_text
            assert report.error_term == error_term_for(KodairaType.parse(type_text), p)
