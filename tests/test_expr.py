"""The shared expression evaluator behind element literals and ``groth``.

``data/literal_outcomes.jsonl`` holds, one JSON row per line, a grammar
(a field spec, or ``groth``), a literal and the outcome the two earlier
recursive-descent parsers gave it: ``str(value)``, or the class name of the
exception.  A literal over 100 characters is stored run-length encoded as
``[[char, count], ...]``, and an outcome over 100 characters as
``sha256:`` and the first 16 hex digits of its digest.  The rows cover
every literal the tests and the bundled corpus parse, the precedence and
sign cases, zero divisions, each literal limit and every ``groth`` form.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from serretrace import motivic
from serretrace.expr import MAX_EXPONENT, MAX_INT_DIGITS
from serretrace.localfield import ElementSyntaxError, LocalFieldSpec, parse_element
from serretrace.motivic import (
    MAX_ARGUMENT,
    MAX_DEGREE,
    MAX_TERM_PAIRS,
    GrothElement,
    GrothSyntaxError,
    parse_groth,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def _parse(grammar: str, text: str):
    if grammar == "groth":
        return parse_groth(text)
    return parse_element(LocalFieldSpec.parse(grammar), text)


def _outcome(grammar: str, text: str) -> str:
    try:
        value = _parse(grammar, text)
    except Exception as exc:
        return type(exc).__name__
    out = str(value)
    if len(out) > 100:
        return "sha256:" + hashlib.sha256(out.encode()).hexdigest()[:16]
    return out


def _rows():
    with open(DATA / "literal_outcomes.jsonl", encoding="utf-8") as handle:
        for line in handle:
            grammar, text, recorded = json.loads(line)
            if not isinstance(text, str):
                text = "".join(char * count for char, count in text)
            yield grammar, text, recorded


def _expected(grammar: str, text: str, recorded: str) -> str:
    if recorded == "RecursionError":
        # The recursive parsers overflowed at about 200 nested parentheses;
        # the evaluator answers as for the operand they enclose.
        return _outcome(grammar, text.strip("()"))
    if text != text.rstrip() and recorded.endswith("SyntaxError"):
        # Trailing whitespace was refused as a bad character.
        return _outcome(grammar, text.rstrip())
    return recorded


def test_every_literal_keeps_its_recorded_outcome():
    rows = list(_rows())
    assert len(rows) > 2000
    mismatches = [
        (grammar, text[:40], recorded, got)
        for grammar, text, recorded in rows
        if (got := _outcome(grammar, text)) != _expected(grammar, text, recorded)
    ]
    assert mismatches == []
    changed = sum(_expected(*row) != row[2] for row in rows)
    assert changed == 34  # 20 nested, 14 with trailing whitespace


@pytest.mark.parametrize(
    "text, same_as",
    [
        ("-t^2", "-(t^2)"),
        ("2*-t^2", "2*(-(t^2))"),
        ("-(1+t)^2", "-((1+t)^2)"),
        ("2^-1", "1/2"),
        ("t^--2", "t^2"),
        ("t^+2", "t^2"),
        ("1/2/3", "(1/2)/3"),
        ("2-3-4", "(2-3)-4"),
        ("1--2", "1+2"),
        ("2+3*4^2", "2+(3*(4^2))"),
        ("t**2", "t^2"),
        ("007", "7"),
        ("t ", "t"),
    ],
)
def test_precedence_signs_and_spelling(text, same_as):
    spec = LocalFieldSpec.parse("laurent:Q")
    assert parse_element(spec, text) == parse_element(spec, same_as)


@pytest.mark.parametrize(
    "text", ["t^2^3", "t^(2)", "t^", "2t", "(t", "t)", "()", "", "1,2", "x", "2//3", "L"]
)
def test_malformed_literals_are_syntax_errors(text):
    with pytest.raises(ElementSyntaxError):
        parse_element(LocalFieldSpec.parse("laurent:Q"), text)


@pytest.mark.parametrize("text", ["1/0", "1/(t-t)", "0^-1", "1/0 2", "1/0)", "1+1/0+"])
def test_a_zero_division_comes_before_a_later_syntax_error(text):
    with pytest.raises(ZeroDivisionError, match="division by zero in K"):
        parse_element(LocalFieldSpec.parse("laurent:Q"), text)


def test_nesting_depth_costs_no_recursion():
    spec = LocalFieldSpec.parse("laurent:F3")
    depth = 5 * sys.getrecursionlimit() + 1
    assert parse_element(spec, "(" * depth + "1+t" + ")" * depth + "^2") == parse_element(
        spec, "(1+t)^2"
    )
    assert parse_groth("-(" * depth + "L" + ")" * depth) == -GrothElement.lefschetz()
    with pytest.raises(ElementSyntaxError):
        parse_element(spec, "(" * depth + "t")


# ---- groth limits -------------------------------------------------------------


def _count_products(monkeypatch):
    calls = []
    mul = GrothElement.__mul__

    def counted(a, b):
        calls.append((len(a.terms) * len(b.terms), motivic._degree(a) + motivic._degree(b)))
        return mul(a, b)

    monkeypatch.setattr(GrothElement, "__mul__", counted)
    return calls


# 2 * MAX_ARGUMENT + 1 generators, each of Poincare degree at most 2 * MAX_ARGUMENT.
_TERMS = "+".join(
    [f"C({g})" for g in range(MAX_ARGUMENT + 1)] + [f"Pn({n})" for n in range(1, MAX_ARGUMENT + 1)]
)


@pytest.mark.parametrize(
    "text, message",
    [
        (f"L^{MAX_EXPONENT + 1}", f"exponent {MAX_EXPONENT + 1} is beyond"),
        (f"Pn({MAX_ARGUMENT + 1})", f"argument {MAX_ARGUMENT + 1} of Pn is beyond"),
        (f"C({MAX_ARGUMENT + 1})", f"argument {MAX_ARGUMENT + 1} of C is beyond"),
        (f"Pn({MAX_ARGUMENT})*L", f"Poincare degree {2 * MAX_ARGUMENT + 2} is beyond"),
        (f"({_TERMS})*({_TERMS})", f"{(2 * MAX_ARGUMENT + 1) ** 2} term pairs is beyond"),
        ("L^" + "9" * (MAX_INT_DIGITS + 1), f"{MAX_INT_DIGITS + 1} digits is beyond"),
    ],
    ids=["exponent", "Pn", "C", "degree", "term-pairs", "digits"],
)
def test_groth_limits_refuse_before_any_product(monkeypatch, text, message):
    calls = _count_products(monkeypatch)
    with pytest.raises(GrothSyntaxError, match=message):
        parse_groth(text)
    assert calls == []


@pytest.mark.parametrize("text", ["L^51", "(L+Gm+C(1))^30", "(1+L)^10000"])
def test_groth_powers_stop_at_the_first_product_beyond_a_limit(monkeypatch, text):
    calls = _count_products(monkeypatch)
    with pytest.raises(GrothSyntaxError, match="is beyond the limit"):
        parse_groth(text)
    assert 0 < len(calls) <= MAX_EXPONENT.bit_length() * 2
    assert all(pairs <= MAX_TERM_PAIRS and degree <= MAX_DEGREE for pairs, degree in calls)


def test_groth_powers_within_the_limits():
    L = GrothElement.lefschetz()
    assert parse_groth("L^50") == parse_groth("*".join(["L"] * 50))
    assert parse_groth("(L+1)^3") == L * L * L + 3 * L * L + 3 * L + 1
    assert parse_groth("pt^10000") == GrothElement.point()
    assert parse_groth("2^10") == GrothElement.from_int(1024)
    with pytest.raises(GrothSyntaxError, match="value with an integer of more than"):
        parse_groth("10^4300")


# ---- the command line ----------------------------------------------------------


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "serretrace.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc, time.perf_counter() - start


_ANALYZE = ("analyze", "--field", "laurent:Q", "--a6", "t")


@pytest.mark.parametrize(
    "argv, code",
    [
        (_ANALYZE + ("--a1=" + "(" * 400 + "1" + ")" * 400,), 0),
        (_ANALYZE + ("--a1=" + "(" * 10_000 + "1" + ")" * 10_000,), 0),
        (_ANALYZE + ("--a1=" + "-" * 100_000 + "1",), 0),
        (_ANALYZE + ("--a1=" + "(" * 10_000 + "1",), 2),
        (("analyze", "--field", "laurent:Q", "--a6", "t "), 0),
        (("groth", "(" * 10_000 + "L" + ")" * 10_000), 0),
        (("groth", "L^1000"), 2),
        (("groth", "L^4000"), 2),
        (("groth", "L^16000"), 2),
        (("groth", "Pn(3000000)"), 2),
        (("groth", "(L+Gm+Pn(2)+C(1)+1)^30"), 2),
        (("groth", "L^" + "7" * 5000), 2),
    ],
    ids=[
        "parens-400", "parens-10000", "minus-100000", "unclosed-10000", "trailing-space",
        "groth-parens-10000", "L^1000", "L^4000", "L^16000", "Pn(3000000)", "sum^30",
        "groth-digits",
    ],
)
def test_cli_answers_or_refuses_within_a_second(argv, code):
    proc, seconds = _cli(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert code == 0 or proc.stderr.startswith("error: ")
    assert seconds < 1.0


def test_cli_sums_twenty_thousand_terms():
    proc, seconds = _cli(*_ANALYZE, "--a1", "+".join(["1"] * 20_001))
    assert proc.returncode == 0
    assert "a1 = 20001\n" in proc.stdout
    assert seconds < 1.0


# ---- seeded fuzz -----------------------------------------------------------------

_ELEMENT_TOKENS = ["t", "0", "1", "2", "3", "10", "007", "+", "-", "*", "/", "^", "**", "(", ")"]
_GROTH_TOKENS = [
    "pt", "L", "Gm", "Pn", "C", "Pn(0)", "Pn(2)", "C(1)", "0", "1", "2", "3",
    "+", "-", "*", "^", "**", "(", ")", ",",
]
_JUNK = ["/", ",", "x", "$", "Pn", "t", ""]


def _random_texts(rng, tokens, count=5000):
    for _ in range(count):
        length = rng.randint(1, 14)
        parts = [rng.choice(tokens if rng.random() < 0.97 else _JUNK) for _ in range(length)]
        yield "".join(part + rng.choice(("", "", "", " ")) for part in parts)


@pytest.mark.parametrize("grammar", ["laurent:Q", "laurent:F2", "padic:5"])
def test_random_element_literals_give_a_value_or_a_typed_refusal(grammar):
    rng = random.Random(f"element {grammar}")
    outcomes = {"value": 0, "syntax": 0, "zero": 0}
    for text in _random_texts(rng, _ELEMENT_TOKENS):
        try:
            _parse(grammar, text)
        except ElementSyntaxError:
            outcomes["syntax"] += 1
        except ZeroDivisionError:
            outcomes["zero"] += 1
        else:
            outcomes["value"] += 1
    assert all(outcomes.values()), outcomes


def test_random_groth_expressions_give_a_value_or_a_typed_refusal():
    rng = random.Random("groth")
    outcomes = {"value": 0, "syntax": 0, "generator": 0}
    for text in _random_texts(rng, _GROTH_TOKENS):
        try:
            parse_groth(text)
        except GrothSyntaxError:
            outcomes["syntax"] += 1
        except ValueError as exc:
            # Pn(0) names no generator, as before the shared evaluator.
            assert str(exc) == "projective space generator needs n >= 1"
            outcomes["generator"] += 1
        else:
            outcomes["value"] += 1
    assert all(outcomes.values()), outcomes
