import sys

import pytest

from corpus_data import corpus_text

from serretrace import pipeline
from serretrace.cli import main as cli_main
from serretrace.localfield import UnsupportedBackend
from serretrace.pipeline import (
    NotCoprime,
    ParseError,
    analyze,
    base_change_check,
    corpus_run,
    format_report,
    parse_report_file,
    report_from_parsed,
    torsor_analyze,
)
from serretrace.tate import KodairaType, ReductionClass
from serretrace.weierstrass import SingularCurve, WeierstrassModel


def curve(line: str) -> WeierstrassModel:
    return WeierstrassModel.from_literals(*line.split(";"))


def test_analyze_cusp_over_q():
    report = analyze(curve("laurent:Q;0;0;0;0;t"))
    assert str(report.type) == "II"
    assert report.serre_euler == 1
    assert report.error_term == 0
    assert report.trace_table == report.trace_snc == report.trace_monodromy == 1
    assert report.tame and report.holds and report.consistent


def test_analyze_node_over_q():
    report = analyze(curve("laurent:Q;1;0;0;0;t"))
    assert str(report.type) == "I1"
    assert report.serre_euler == 0
    assert report.error_term == 0
    assert report.trace_table == report.trace_snc == report.trace_monodromy == 0
    assert report.holds


def test_analyze_cusp_over_f2_is_singular():
    # y^2 = x^3 + t degenerates in residue characteristic 2: Delta = -432 t^2 = 0,
    # so the honest outcome of the p = 2 run is SingularCurve, which propagates.
    with pytest.raises(SingularCurve):
        curve("laurent:F2;0;0;0;0;t")


def test_analyze_wild_cases_report_failure_but_stay_consistent():
    report = analyze(curve("laurent:F2;0;0;t;0;t"))  # type II at p = 2
    assert str(report.type) == "II"
    assert report.error_term == 1
    assert not report.tame
    assert not report.holds
    assert report.consistent  # table and SNC routes agree; monodromy exempt when wild
    assert report.trace_monodromy != report.trace_table


def test_analyze_p2_type_III_holds_without_tameness():
    report = analyze(curve("laurent:F2;0;0;t;t;0"))
    assert str(report.type) == "III"
    assert not report.tame
    assert report.error_term == 0
    assert report.holds


# ---- base change -----------------------------------------------------------------

def test_base_change_d6_removes_the_cusp():
    check = base_change_check(curve("laurent:Q;0;0;0;0;t"), 6)
    assert str(check.substituted.type) == "I0"
    assert check.serre_euler_after == 0
    assert check.predicted_trace == 0
    assert check.agrees


def test_base_change_d2_gives_IV():
    check = base_change_check(curve("laurent:Q;0;0;0;0;t"), 2)
    assert str(check.substituted.type) == "IV"
    assert check.serre_euler_after == 3
    assert check.predicted_trace == 3
    assert check.agrees


def test_base_change_d1_is_identity():
    check = base_change_check(curve("laurent:Q;0;0;0;0;t"), 1)
    assert check.substituted.type == check.original.type
    assert check.agrees


def test_base_change_rejects_padic_and_noncoprime():
    with pytest.raises(UnsupportedBackend):
        base_change_check(curve("padic:2;0;0;2;0;2"), 3)
    with pytest.raises(NotCoprime):
        base_change_check(curve("laurent:F2;1;0;0;0;t"), 2)
    with pytest.raises(NotCoprime):
        base_change_check(curve("laurent:F3;1;0;0;0;t"), 3)


def test_base_change_coprime_on_f2_works():
    check = base_change_check(curve("laurent:F2;1;0;0;0;t"), 3)
    assert str(check.substituted.type) == "I3"
    assert check.agrees


# ---- torsors ----------------------------------------------------------------------

def test_torsor_over_tame_additive_jacobian_fails():
    jac = analyze(curve("padic:5;0;0;0;25;0"))
    assert str(jac.type) == "I0*"
    report = torsor_analyze(jac.type, jac.p, 2)
    assert report.serre_euler == 0
    assert report.error_term == 4
    assert report.scaled_smooth_chi == 0
    assert not report.holds
    assert report.warnings  # order 2 is prime to p = 5: no such torsor exists


def test_torsor_over_multiplicative_jacobian_holds():
    jac = analyze(curve("laurent:Q;1;0;0;0;t^3"))
    for m in (2, 3, 5):
        report = torsor_analyze(jac.type, jac.p, m)
        assert report.error_term == 0
        assert report.holds
        assert not report.warnings


def test_torsor_over_good_jacobian_at_p0_holds():
    jac = analyze(curve("laurent:Q;0;0;0;0;1"))
    report = torsor_analyze(jac.type, jac.p, 3)
    assert report.error_term == 0
    assert report.holds


def test_torsor_m1_echoes_jacobian():
    jac = analyze(curve("laurent:Q;0;0;0;t^2;0"))
    report = torsor_analyze(jac.type, jac.p, 1)
    assert report.m == 1
    assert report.serre_euler == jac.serre_euler
    assert report.error_term == jac.error_term
    assert report.holds == jac.holds


def test_torsor_warning_for_wild_additive_jacobian_with_p_power_order():
    jac = analyze(curve("laurent:F2;0;t;t^2;t^2;0"))  # I0* at p = 2
    report = torsor_analyze(jac.type, jac.p, 2)  # order 2 = p: torsor can exist
    assert not report.warnings
    assert report.error_term == 4 + (-2)
    assert not report.holds


# ---- report serialization ---------------------------------------------------------

def test_report_round_trip_through_text():
    report = analyze(curve("laurent:Q;0;t;0;0;t^4"))
    text = format_report(report)
    type_, p = report_from_parsed(parse_report_file(text))
    assert type_ == report.type
    assert p == report.p
    torsor = torsor_analyze(type_, p, 1)
    assert torsor.serre_euler == report.serre_euler
    assert torsor.error_term == report.error_term
    assert report.reduction == ReductionClass.ADDITIVE
    assert torsor_analyze(type_, p, 2).warnings  # the additive-reduction warning


def test_report_has_the_stable_keys():
    report = analyze(curve("laurent:Q;0;0;0;0;t"))
    text = format_report(report)
    for key in (
        "field", "type", "v_delta_min", "n_components", "serre_euler", "tame",
        "error_term", "trace_table", "trace_snc", "trace_monodromy", "holds",
        "consistent",
    ):
        assert f"\n{key} = " in "\n" + text


def test_parse_report_rejects_missing_keys():
    with pytest.raises(ParseError):
        report_from_parsed(parse_report_file("field = laurent:Q"))


# ---- corpus -----------------------------------------------------------------------

def test_bundled_corpus_has_no_consistency_failures():
    summary = corpus_run(corpus_text())
    assert summary.total == 30
    assert summary.consistency_failures == 0


def test_empty_corpus_gives_empty_summary():
    summary = corpus_run("")
    assert summary.total == 0
    assert summary.type_counts == {}
    assert summary.holds_count == summary.fails_count == 0


def test_corpus_parse_error_carries_line_number():
    summary = corpus_run("laurent:Q;1;0;0;0;t\nlaurent:Q;1;0;0\n")
    assert summary.errors == ((2, "line 2: expected '<fieldspec>;a1;a2;a3;a4;a6', got 4 fields"),)
    summary = corpus_run("# header\n\nlaurent:Q;0;0;0;0;0\n")
    assert summary.errors == ((1, "line 3: discriminant vanishes"),)


_CORPUS_WITH_A_SINGULAR_LINE = "laurent:Q;0;0;0;0;t\nlaurent:Q;0;0;0;0;0\nlaurent:Q;1;0;0;0;t\n"


def test_corpus_reports_a_bad_line_and_analyses_the_others():
    summary = corpus_run(_CORPUS_WITH_A_SINGULAR_LINE)
    assert [str(r.type) for r in summary.reports] == ["II", "I1"]
    assert summary.errors == ((2, "line 2: discriminant vanishes"),)
    assert summary.total == 3
    assert summary.consistency_failures == 0
    text = pipeline.format_corpus_summary(summary)
    assert "# curve 2\nerror = line 2: discriminant vanishes\n\n# curve 3\nfield = laurent:Q" in text
    assert text.endswith("consistency_failures = 0\nerrors = 1")
    assert "errors" not in pipeline.format_corpus_summary(corpus_run("laurent:Q;0;0;0;0;t\n"))


def test_corpus_reports_keep_input_order():
    text = "laurent:Q;0;0;0;0;t\nlaurent:Q;1;0;0;0;t\n"
    summary = corpus_run(text)
    assert [str(r.type) for r in summary.reports] == ["II", "I1"]


# ---- CLI --------------------------------------------------------------------------

def test_cli_analyze_exit_code_and_output(capsys):
    rc = cli_main(["analyze", "--field", "laurent:Q", "--a6", "t"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "type = II" in out
    assert "holds = true" in out


def test_cli_rejects_singular_input(capsys):
    rc = cli_main(["analyze", "--field", "laurent:Q"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_literal_power_beyond_the_limits(capsys):
    rc = cli_main(["analyze", "--field", "laurent:Q", "--a1", "1", "--a6", "t^20000"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["t^6000*t^6000", "1" * 4301], ids=["degree", "digits"])
def test_cli_rejects_a_whole_literal_beyond_the_limits(capsys, literal):
    rc = cli_main(["analyze", "--field", "laurent:Q", "--a1", "1", "--a6", literal])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "beyond the limit" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("setting", [0, 10_000])
def test_cli_refuses_a_coefficient_too_long_to_print(capsys, setting):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(setting)
        rc = cli_main(["analyze", "--field", "padic:5", "--a4", "(10^3000)^2", "--a6", "1"])
    finally:
        sys.set_int_max_str_digits(saved)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "beyond the limit 4300" in captured.err


def test_cli_reports_a_table_inconsistency_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(pipeline.snc, "tame_trace", lambda config, p: 10**6)
    rc = cli_main(["analyze", "--field", "laurent:Q", "--a6", "t"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: type II at p=0: table trace")
    assert "snc trace 1000000" in captured.err


def test_cli_basechange(capsys):
    rc = cli_main(["basechange", "--field", "laurent:Q", "--a6", "t", "--d", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "type = I0*" in out
    assert "agrees = true" in out


def test_cli_torsor_round_trip(tmp_path, capsys):
    rc = cli_main(["analyze", "--field", "padic:5", "--a4", "25"])
    report_text = capsys.readouterr().out
    assert rc == 0
    path = tmp_path / "jac.txt"
    path.write_text(report_text)
    rc = cli_main(["torsor", "--jac", str(path), "--m", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "error_term = 4" in out
    assert "holds = false" in out


def test_every_corpus_report_reads_back_unchanged():
    for report in corpus_run(corpus_text()).reports:
        type_, p = report_from_parsed(parse_report_file(format_report(report)))
        assert (type_, p) == (report.type, report.p)
        torsor = torsor_analyze(type_, p, 1)
        assert (torsor.serre_euler, torsor.error_term, torsor.holds) == (
            report.serre_euler, report.error_term, report.holds,
        )


@pytest.mark.parametrize("p", ["4", "1", "-3", "9", "318665857834031151167461"])
def test_cli_torsor_rejects_a_p_that_is_neither_0_nor_prime(tmp_path, capsys, p):
    path = tmp_path / "jac.txt"
    path.write_text(f"type = I0*\np = {p}\nserre_euler = 99\nerror_term = -7\n")
    rc = cli_main(["torsor", "--jac", str(path), "--m", "2"])
    assert rc == 2
    assert "not 0 or a prime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, tampered",
    [("serre_euler", "99"), ("error_term", "-7"), ("error_term", "0"), ("tame", "true")],
)
def test_cli_torsor_rejects_stored_values_that_disagree_with_type_and_p(
    tmp_path, capsys, key, tampered
):
    report_text = format_report(analyze(curve("laurent:F2;0;t;t^2;t^2;0")))  # I0* at p = 2
    lines = [
        f"{key} = {tampered}" if line.startswith(f"{key} = ") else line
        for line in report_text.splitlines()
    ]
    path = tmp_path / "jac.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match=key):
        report_from_parsed(parse_report_file(path.read_text()))
    rc = cli_main(["torsor", "--jac", str(path), "--m", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_torsor_rejects_an_edited_serre_euler_and_error_term(tmp_path, capsys):
    path = tmp_path / "jac.txt"
    path.write_text("type = I0*\np = 2\nserre_euler = 99\nerror_term = -7\n")
    rc = cli_main(["torsor", "--jac", str(path), "--m", "2"])
    assert rc == 2
    assert "serre_euler = 99" in capsys.readouterr().err


def test_cli_snc(tmp_path, capsys):
    config = tmp_path / "fiber.snc"
    config.write_text(
        "component C 2 0\ncomponent A 1 0\ncomponent B 1 0\n"
        "component D 1 0\ncomponent E 1 0\n"
        "edge C A\nedge C B\nedge C D\nedge C E\n"
    )
    rc = cli_main(["snc", str(config), "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi_fiber = 6" in out
    assert "wild_locus_chi = -2" in out
    assert "tame_trace = 2" in out


def test_cli_groth(capsys):
    rc = cli_main(["groth", "C(1)", "--vs", "3*pt"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict = distinct" in out


def test_cli_corpus_with_a_singular_line_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "three.txt"
    path.write_text(_CORPUS_WITH_A_SINGULAR_LINE)
    assert cli_main(["corpus", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("# curve") == 3
    assert "error = line 2: discriminant vanishes" in captured.out
    assert "type = I1" in captured.out


def test_cli_corpus_builtin(capsys):
    rc = cli_main(["corpus", "builtin"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "consistency_failures = 0" in out
    assert "curves = 30" in out


def test_cli_atlas(capsys):
    rc = cli_main(["atlas", "--max-nu", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# type I0" in out and "# type II*" in out
    assert "wild_chi_p2 = -2" in out  # the I0* block


def test_pipeline_reports_are_tame_consistent_on_corpus():
    summary = corpus_run(corpus_text())
    for report in summary.reports:
        assert report.trace_table == report.trace_snc
        if report.tame:
            assert report.trace_monodromy == report.trace_table
        if report.p == 0:
            assert report.holds
