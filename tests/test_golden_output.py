"""Byte-for-byte gate on the CLI's two reference outputs.

``tests/data`` holds the output of ``serretrace corpus builtin`` and of
``serretrace atlas --max-nu 6``.  A change to the arithmetic or to the
report assembly must reproduce them exactly; a change that alters them on
purpose rewrites the files and says why.
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
    ],
    ids=["corpus-builtin", "atlas-max-nu-6"],
)
def test_cli_output_is_byte_identical_to_the_reference(argv, golden, capsys):
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (DATA / golden).read_bytes()
