"""Command-line interface.

Subcommands mirror the library: ``analyze`` one curve, ``basechange`` a
curve against the monodromy prediction, ``torsor`` over a saved Jacobian
report, ``snc`` on a configuration file, ``groth`` expressions, ``corpus``
batch runs and ``atlas`` to dump the per-type tables.  Output is flat
``key = value`` text; the exit code is nonzero exactly when a consistency
check failed or the input was rejected.
"""

from __future__ import annotations

import argparse
import sys

from . import kodaira, motivic, pipeline, snc
from .tate import n_components_for
from .weierstrass import WeierstrassModel


def _add_curve_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--field", required=True, help="padic:<p>, laurent:Q or laurent:F<p>")
    for name in ("a1", "a2", "a3", "a4", "a6"):
        parser.add_argument(f"--{name}", default="0", help=f"coefficient {name} (default 0)")


def _curve_from_args(args) -> WeierstrassModel:
    return WeierstrassModel.from_literals(
        args.field, args.a1, args.a2, args.a3, args.a4, args.a6
    )


def _cmd_analyze(args) -> int:
    report = pipeline.analyze(_curve_from_args(args))
    print(pipeline.format_report(report))
    return 0 if report.consistent else 1


def _cmd_basechange(args) -> int:
    check = pipeline.base_change_check(_curve_from_args(args), args.d)
    print("# original")
    print(pipeline.format_report(check.original))
    print()
    print(f"# after t -> t^{check.degree}")
    print(pipeline.format_report(check.substituted))
    print()
    print(f"serre_euler_after = {check.serre_euler_after}")
    print(f"predicted_trace = {check.predicted_trace}")
    print(f"agrees = {'true' if check.agrees else 'false'}")
    ok = check.original.consistent and check.substituted.consistent
    if check.original.tame:
        ok = ok and check.agrees
    return 0 if ok else 1


def _cmd_torsor(args) -> int:
    with open(args.jac, "r", encoding="utf-8") as handle:
        values = pipeline.parse_report_file(handle.read())
    type_, p = pipeline.report_from_parsed(values)
    report = pipeline.torsor_analyze(type_, p, args.m)
    print(pipeline.format_torsor_report(report))
    return 0


def _cmd_snc(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = snc.parse_config(handle.read())
    diagnostics = snc.validate(config)
    print(f"components = {len(config.components)}")
    print(f"edges = {len(config.edges)}")
    print(f"chi_fiber = {diagnostics.chi_fiber}")
    print(f"multiplicity_gcd = {diagnostics.multiplicity_gcd}")
    print(f"smooth_locus_chi = {snc.smooth_locus_chi(config)}")
    print(f"wild_locus_chi = {snc.wild_locus_chi(config, args.p)}")
    print(f"tame_trace = {snc.tame_trace(config, args.p)}")
    print(f"ok = {'true' if diagnostics.ok else 'false'}")
    for failure in diagnostics.failures:
        print(f"failure = {failure}")
    return 0 if diagnostics.ok else 1


def _cmd_groth(args) -> int:
    element = motivic.parse_groth(args.expr)
    poly = motivic.poincare(element)
    print(f"expr = {element}")
    print(f"poincare = {poly}")
    print(f"euler = {poly.evaluate(1)}")
    try:
        count = motivic.point_count_polynomial(element)
        print(f"point_count = {count.__str__('q')}")
    except motivic.CountUnavailable:
        print("point_count = unavailable")
    comparison = motivic.eq_mod_L_minus_1(element, motivic.parse_groth(args.vs))
    print(f"mod_L_minus_1_vs = {args.vs}")
    print(f"residue = {comparison.residue}")
    print(f"verdict = {comparison.verdict.value}")
    return 0


def _cmd_corpus(args) -> int:
    if args.file == "builtin":
        from importlib import resources

        text = resources.files("serretrace").joinpath("data/corpus.txt").read_text()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    summary = pipeline.corpus_run(text)
    print(pipeline.format_corpus_summary(summary))
    return 0 if summary.consistency_failures == 0 and not summary.errors else 1


def _cmd_atlas(args) -> int:
    for type_ in kodaira.atlas_types(args.max_nu):
        config = kodaira.snc_configuration(type_)
        mono = kodaira.monodromy(type_)
        mono_desc = mono.kind if mono.order is None else f"{mono.kind}(order {mono.order})"
        print(f"# type {type_}")
        print(f"n_components = {n_components_for(type_)}")
        print(f"monodromy = {mono_desc}")
        print(f"serre_class = {kodaira.serre_class(type_)}")
        print(f"chi_fiber = {snc.chi_fiber(config)}")
        print(f"smooth_locus_chi = {snc.smooth_locus_chi(config)}")
        print(f"wild_chi_p2 = {snc.wild_locus_chi(config, 2)}")
        print(f"wild_chi_p3 = {snc.wild_locus_chi(config, 3)}")
        print(f"configuration = {config}")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serretrace",
        description="Exact trace-formula computations for curves over discretely valued fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify one curve and verify the trace identities")
    _add_curve_arguments(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_base = sub.add_parser("basechange", help="compare Tate after t -> t^d with the monodromy prediction")
    _add_curve_arguments(p_base)
    p_base.add_argument("--d", type=int, required=True, help="base-change degree")
    p_base.set_defaults(func=_cmd_basechange)

    p_torsor = sub.add_parser("torsor", help="analyze an order-m torsor over a saved Jacobian report")
    p_torsor.add_argument("--jac", required=True, help="report file produced by 'analyze'")
    p_torsor.add_argument("--m", type=int, required=True, help="torsor order")
    p_torsor.set_defaults(func=_cmd_torsor)

    p_snc = sub.add_parser("snc", help="evaluate an SNC configuration file")
    p_snc.add_argument("config", help="configuration file (component/edge lines)")
    p_snc.add_argument("--p", type=int, default=0, help="residue characteristic (default 0)")
    p_snc.set_defaults(func=_cmd_snc)

    p_groth = sub.add_parser("groth", help="evaluate a Grothendieck-ring expression")
    p_groth.add_argument("expr", help="expression over pt, L, Pn(n), Gm, C(g)")
    p_groth.add_argument("--vs", default="0", help="second expression for the quotient comparison")
    p_groth.set_defaults(func=_cmd_groth)

    p_corpus = sub.add_parser("corpus", help="analyze every curve in a corpus file")
    p_corpus.add_argument("file", help="corpus file, or 'builtin' for the bundled corpus")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_atlas = sub.add_parser("atlas", help="dump the per-type tables")
    p_atlas.add_argument("--max-nu", type=int, default=3, help="largest I/I* index to list")
    p_atlas.set_defaults(func=_cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # TableInconsistency and the internal identity checks: a consistency
        # check failed, so report it as such rather than as a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
