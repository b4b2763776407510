"""Byte-for-byte gate on the CLI's reference outputs.

``tests/data`` holds the output of ``serretrace corpus builtin``, of
``serretrace atlas --max-nu 6``, and of ``serretrace corpus`` on
``literals_corpus.txt``, whose coefficients exercise the literal grammar.
A change to the arithmetic, the parsing or the report assembly must
reproduce them exactly; a change that alters them on purpose rewrites the
files and says why.
"""

from pathlib import Path

import pytest

from serretrace.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["corpus", "builtin"], "corpus_builtin.out"),
        (["atlas", "--max-nu", "6"], "atlas_max_nu_6.out"),
        (["corpus", str(DATA / "literals_corpus.txt")], "literals_corpus.out"),
    ],
    ids=["corpus-builtin", "atlas-max-nu-6", "literals-corpus"],
)
def test_cli_output_is_byte_identical_to_the_reference(argv, golden, capsys):
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (DATA / golden).read_bytes()
