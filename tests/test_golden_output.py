"""Byte-for-byte gate on the CLI's reference outputs.

``tests/data`` holds the output of ``serretrace corpus builtin``, of
``serretrace atlas --max-nu 6``, of ``serretrace corpus`` on
``literals_corpus.txt``, whose coefficients exercise the literal grammar,
of four ``serretrace groth`` calls, and the torsor reports of every atlas
type over a grid of (p, m).  A change to the arithmetic, the parsing or
the report assembly must reproduce them exactly; a change that alters
them on purpose rewrites the files and says why.
"""

from pathlib import Path

import pytest

from serretrace import kodaira, pipeline
from serretrace.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["corpus", "builtin"], "corpus_builtin.out"),
        (["atlas", "--max-nu", "6"], "atlas_max_nu_6.out"),
        (["corpus", str(DATA / "literals_corpus.txt")], "literals_corpus.out"),
        (
            ["groth", "C(2)*C(1) - L*Gm + 7", "--vs", "C(1)*C(2)"],
            "groth_curves_vs_curves.out",
        ),
        (
            ["groth", "(L+Gm+C(1))^3", "--vs", "Gm*L+Pn(2)"],
            "groth_cube_vs_uncountable.out",
        ),
        (["groth", "Pn(1) - pt", "--vs", "L"], "groth_scissor_vs_L.out"),
        (["groth", "Gm*Gm + L^2 - Pn(3)"], "groth_without_vs.out"),
    ],
    ids=[
        "corpus-builtin",
        "atlas-max-nu-6",
        "literals-corpus",
        "groth-curves-vs-curves",
        "groth-cube-vs-uncountable",
        "groth-scissor-vs-L",
        "groth-without-vs",
    ],
)
def test_cli_output_is_byte_identical_to_the_reference(argv, golden, capsys):
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (DATA / golden).read_bytes()


def test_torsor_reports_are_byte_identical_to_the_reference():
    """The path that reads the error term, the Serre class and the
    reduction class of a type together, over every atlas type."""
    blocks = [
        pipeline.format_torsor_report(pipeline.torsor_analyze(type_, p, m))
        for type_ in kodaira.atlas_types(4)
        for p in (0, 2, 3, 5)
        for m in (1, 2, 3)
    ]
    expected = (DATA / "torsor_table.out").read_text(encoding="utf-8")
    assert "\n\n".join(blocks) + "\n" == expected
