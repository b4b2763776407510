import random

import pytest

from corpus_data import EXPECTED, TYPE_REPRESENTATIVES, corpus_lines

from serretrace import kodaira, motivic, snc, tate
from serretrace.cli import main as cli_main
from serretrace.localfield import LocalFieldSpec, ValuedElement, parse_element
from serretrace.tate import (
    KodairaType,
    ReductionClass,
    error_term_for,
    is_cohomologically_tame_for,
    tate_algorithm,
)
from serretrace.weierstrass import SingularCurve, WeierstrassModel, transform


def curve_from_line(line: str) -> WeierstrassModel:
    return WeierstrassModel.from_literals(*line.split(";"))


def classify(line: str):
    return tate_algorithm(curve_from_line(line))


# ---- spec examples -----------------------------------------------------------

def test_cusp_over_laurent_q_is_type_II():
    inv = classify("laurent:Q;0;0;0;0;t")
    assert str(inv.type) == "II"
    assert inv.v_delta_min == 2
    assert inv.n_components == 1
    assert inv.reduction_class == ReductionClass.ADDITIVE


def test_a6_t_squared_is_type_IV():
    inv = classify("laurent:Q;0;0;0;0;t^2")
    assert str(inv.type) == "IV"
    assert inv.n_components == 3


def test_node_is_multiplicative_I1():
    inv = classify("laurent:Q;1;0;0;0;t")
    assert str(inv.type) == "I1"
    assert inv.reduction_class == ReductionClass.MULTIPLICATIVE
    assert inv.n_components == 1


def test_unit_discriminant_is_good():
    inv = classify("laurent:Q;0;0;0;0;1")
    assert str(inv.type) == "I0"
    assert inv.reduction_class == ReductionClass.GOOD


def test_kodaira_type_parsing_round_trip():
    for text in ("I0", "I1", "I17", "II", "III", "IV", "I0*", "I3*", "IV*", "III*", "II*"):
        assert str(KodairaType.parse(text)) == text
    with pytest.raises(ValueError):
        KodairaType.parse("V")


# ---- tameness and error term --------------------------------------------------

WILD_AT_2 = ["II", "II*", "III", "III*", "I0*", "I1*", "I4*"]
WILD_AT_3 = ["II", "II*", "IV", "IV*"]


def _tame(type_text: str, p: int) -> bool:
    return is_cohomologically_tame_for(KodairaType.parse(type_text), p)


def _error_term(type_text: str, p: int) -> int:
    return error_term_for(KodairaType.parse(type_text), p)


@pytest.mark.parametrize("type_text", WILD_AT_2)
def test_not_tame_at_2(type_text):
    assert _tame(type_text, 2) is False


@pytest.mark.parametrize("type_text", WILD_AT_3)
def test_not_tame_at_3(type_text):
    assert _tame(type_text, 3) is False


def test_tame_everywhere_else():
    assert _tame("I0*", 2) is False
    assert _tame("II*", 0) is True
    assert _tame("IV", 2) is True
    assert _tame("III", 3) is True
    for t in ("I0", "I1", "I9"):
        for p in (0, 2, 3, 5):
            assert _tame(t, p) is True


def test_error_term_known_values():
    assert _error_term("I0*", 2) == -2
    assert _error_term("IV*", 3) == -1
    assert _error_term("II", 0) == 0
    assert _error_term("III", 2) == 0
    assert _error_term("II", 2) == 1
    assert _error_term("II*", 3) == 1


def test_error_term_matches_wild_locus_on_tables():
    for type_ in kodaira.atlas_types(4):
        for p in (0, 2, 3, 5, 7):
            assert error_term_for(type_, p) == snc.wild_locus_chi(
                kodaira.snc_configuration(type_), p
            ), f"{type_} at p={p}"


# ---- corpus regression ----------------------------------------------------------

def test_corpus_matches_hand_verified_triples():
    lines = corpus_lines()
    assert len(lines) == len(EXPECTED) == 30
    for (lineno, line), (type_text, v_min, n) in zip(lines, EXPECTED):
        inv = classify(line)
        got = (str(inv.type), inv.v_delta_min, inv.n_components)
        assert got == (type_text, v_min, n), f"line {lineno}: {line} -> {got}"


def test_idempotent_on_minimal_models():
    for _, line in corpus_lines():
        inv = tate_algorithm(curve_from_line(line))
        again = tate_algorithm(inv.minimal_model)
        assert again.type == inv.type
        assert again.v_delta_min == inv.v_delta_min
        assert again.n_components == inv.n_components


def test_input_vs_minimal_discriminant_drop_is_a_multiple_of_twelve():
    from serretrace.weierstrass import invariants

    for _, line in corpus_lines():
        W = curve_from_line(line)
        inv = tate_algorithm(W)
        drop = invariants(W).delta.valuation() - inv.v_delta_min
        assert drop >= 0 and drop % 12 == 0


# ---- randomized unimodular transforms -----------------------------------------

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
    if spec.residue_char == 0:
        head = rng.choice([1, -1, 2])
    else:
        head = rng.randint(1, spec.residue_char - 1)
    tail = rng.randint(0, max(spec.residue_char - 1, 1))
    return parse_element(spec, f"{head}+{tail}*t")


def test_type_is_invariant_under_unimodular_transforms():
    rng = random.Random(1357)
    lines = corpus_lines()
    trials_per_curve = 3
    for _, line in lines:
        W = curve_from_line(line)
        inv = tate_algorithm(W)
        for _ in range(trials_per_curve):
            u = _random_unit(W.spec, rng)
            r, s, t = (_random_integral(W.spec, rng) for _ in range(3))
            W2 = transform(W, u, r, s, t)
            inv2 = tate_algorithm(W2)
            assert inv2.type == inv.type, f"{line} under ({u},{r},{s},{t})"
            assert inv2.v_delta_min == inv.v_delta_min
            assert inv2.n_components == inv.n_components


# ---- base-change behavior --------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5])
def test_multiplicative_base_change_multiplies_nu(d):
    for nu in (1, 2, 3):
        W = WeierstrassModel.from_literals("laurent:Q", "1", "0", "0", "0", f"t^{nu}")
        inv = tate_algorithm(W.base_change_substitute(d))
        assert str(inv.type) == f"I{d * nu}"


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_good_reduction_is_base_change_stable(d):
    W = WeierstrassModel.from_literals("laurent:Q", "0", "0", "0", "0", "1")
    assert str(tate_algorithm(W.base_change_substitute(d)).type) == "I0"


# ---- master identity across modules ------------------------------------------------

def test_trace_formula_master_identity_per_type():
    for type_ in kodaira.atlas_types(3):
        config = kodaira.snc_configuration(type_)
        serre_chi = motivic.euler(kodaira.serre_class(type_))
        for p in (0, 2, 3, 5):
            assert serre_chi + error_term_for(type_, p) == snc.tame_trace(config, p)


def test_type_representatives_reach_every_type():
    for p, table in TYPE_REPRESENTATIVES.items():
        for type_text, line in table.items():
            inv = classify(line)
            assert str(inv.type) == type_text, f"p={p}: {line} -> {inv.type}"
            assert inv.p == p


def test_residue_root_guard_never_fires_on_corpus():
    from serretrace.tate import ResidueRootNeeded

    for _, line in corpus_lines():
        try:
            classify(line)
        except ResidueRootNeeded as exc:  # pragma: no cover
            pytest.fail(f"ResidueRootNeeded fired on {line}: {exc}")


def test_char2_short_form_is_singular_not_misclassified():
    with pytest.raises(SingularCurve):
        WeierstrassModel.from_literals("laurent:F2", "0", "0", "0", "0", "t")


def test_multiplicative_iff_negative_j_and_unit_c4():
    from serretrace.weierstrass import invariants

    for _, line in corpus_lines():
        inv = tate_algorithm(curve_from_line(line))
        minimal = invariants(inv.minimal_model)
        is_mult = inv.reduction_class == ReductionClass.MULTIPLICATIVE
        criterion = minimal.j.valuation() < 0 and minimal.c4.valuation() == 0
        assert is_mult == criterion, line


def test_high_valuation_node_classifies_as_I1000():
    inv = classify("laurent:Q;1;0;0;0;t^1000")
    assert str(inv.type) == "I1000"
    assert inv.v_delta_min == 1000
    assert inv.n_components == 1000


# ---- loop bounds ---------------------------------------------------------------


def _undo_transforms(monkeypatch):
    """Make tate.transform return its input; fail, not hang, past 50 calls."""
    calls = []

    def identity(model, u, r, s, t):
        calls.append(None)
        if len(calls) > 50:
            pytest.fail("the walk kept transforming past its bound")
        return model

    monkeypatch.setattr(tate, "transform", identity)


def test_rescale_loop_stops_at_v_delta_over_12(monkeypatch):
    # y^2 = x^3 + t^4 x + t^6 has v(Delta) = 12 and needs one rescale.  With
    # the rescale undone, the walk would start over forever.
    line = "laurent:Q;0;0;0;t^4;t^6"
    assert str(classify(line).type) == "I0"
    _undo_transforms(monkeypatch)
    with pytest.raises(AssertionError, match="v\\(Delta\\) // 12"):
        classify(line)


def test_cli_reports_a_loop_bound_as_a_failed_check(monkeypatch, capsys):
    _undo_transforms(monkeypatch)
    rc = cli_main(["analyze", "--field", "laurent:Q", "--a4", "t^4", "--a6", "t^6"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_istar_subloop_stops_when_m_passes_v_delta():
    # y^2 = x^3 + t x^2 + t^9 enters the subloop as it stands and leaves
    # it at m = 3 as I6*, with v(Delta) = 12.
    model = curve_from_line("laurent:Q;0;t;0;0;t^9")
    assert tate._istar_subloop(model, 12)[0] == 6
    with pytest.raises(AssertionError, match="subloop passed"):
        tate._istar_subloop(model, 2)
