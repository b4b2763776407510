"""Correctness checks computed apart from the program.

Nothing here imports ``serretrace``.  The expected classifications come
from the hand-verified triples of the test corpus and from closed forms
of a few one-parameter families; the Ogg-Saito conductor identity ties
each report's type, discriminant valuation and tameness together.  A
verification passes only when its formatted report text satisfies every
check that applies to it.
"""

from __future__ import annotations

import re

REPORT_KEYS = (
    "field", "a1", "a2", "a3", "a4", "a6", "p", "type", "v_delta_min",
    "n_components", "reduction", "serre_class", "serre_euler", "tame",
    "error_term", "trace_table", "trace_snc", "trace_monodromy", "holds",
    "consistent",
)

_INDEXED = re.compile(r"^I(\d+)(\*?)$")
_FIXED = {
    # kind: (irreducible components m, component-group order, reduction)
    "II": (1, 1, "additive"),
    "III": (2, 2, "additive"),
    "IV": (3, 3, "additive"),
    "IV*": (7, 3, "additive"),
    "III*": (8, 2, "additive"),
    "II*": (9, 1, "additive"),
}


def kodaira_table(type_text: str):
    """(irreducible components, component-group order, reduction) of a type.

    m is n for I_n (1 for I0), n + 5 for I_n* (5 for I0*), 1/2/3 for
    II/III/IV and 7/8/9 for IV*/III*/II*.
    """
    if type_text in _FIXED:
        return _FIXED[type_text]
    match = _INDEXED.match(type_text)
    if not match:
        raise ValueError(f"unknown Kodaira symbol {type_text!r}")
    n = int(match.group(1))
    if match.group(2):
        return n + 5, 4, "additive"
    if n == 0:
        return 1, 1, "good"
    return n, n, "multiplicative"


_EPSILON = {"good": 0, "multiplicative": 1, "additive": 2}


def residue_char(field: str) -> int:
    if field == "laurent:Q":
        return 0
    if field.startswith("laurent:F"):
        return int(field[len("laurent:F"):])
    if field.startswith("padic:"):
        return int(field[len("padic:"):])
    raise ValueError(f"unknown field spec {field!r}")


# ---- closed forms -----------------------------------------------------------
# Each returns (type, v(Delta_min)); the component-group order follows from
# kodaira_table.

def closed_form_cubic(m: int):
    """y^2 = x^3 + t^m over Q: the type depends on m mod 6 only."""
    return (("I0", 0), ("II", 2), ("IV", 4), ("I0*", 6), ("IV*", 8), ("II*", 10))[m % 6]


def closed_form_cubic_x(m: int):
    """y^2 = x^3 + t^m x over Q: the type depends on m mod 4 only."""
    return (("I0", 0), ("III", 3), ("I0*", 6), ("III*", 9))[m % 4]


def closed_form_multiplicative(n: int):
    """y^2 + xy = x^3 + pi^n: split multiplicative of type I_n."""
    return (f"I{n}", n)


def closed_form_istar(m: int):
    """y^2 = x^3 + t x^2 + t^m (m >= 4, p != 2): type I*_{m-3}."""
    return (f"I{m - 3}*", m + 3)


# ---- report checks ------------------------------------------------------------

def parse_report_text(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return values


def check_report(text: str, expect: dict) -> list:
    """Every violated check on one formatted report, as readable strings.

    ``expect`` may hold ``type``, ``v`` and ``n``; absent keys are not
    checked.  The Ogg-Saito and trace checks apply to every report.
    """
    values = parse_report_text(text)
    missing = [key for key in REPORT_KEYS if key not in values]
    if missing:
        return [f"report lacks {', '.join(missing)}"]
    problems = []
    type_text = values["type"]
    try:
        m, group_order, reduction = kodaira_table(type_text)
        v = int(values["v_delta_min"])
        n = int(values["n_components"])
        p = int(values["p"])
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    for key, got in (("type", type_text), ("v", v), ("n", n)):
        if key in expect and str(expect[key]) != str(got):
            problems.append(f"{key} = {got}, expected {expect[key]}")
    if n != group_order:
        problems.append(f"n_components = {n}, but {type_text} has group order {group_order}")
    if values["reduction"] != reduction:
        problems.append(f"reduction = {values['reduction']}, but {type_text} is {reduction}")
    if p != residue_char(values["field"]):
        problems.append(f"p = {p} does not match field {values['field']}")
    # Ogg-Saito: conductor exponent f = v(Delta_min) + 1 - m, swan = f - epsilon.
    swan = v + 1 - m - _EPSILON[reduction]
    tame = values["tame"] == "true"
    if swan < 0:
        problems.append(f"Ogg-Saito gives swan = {swan} < 0")
    if (swan == 0) != tame:
        problems.append(f"Ogg-Saito gives swan = {swan} but tame = {values['tame']}")
    if p not in (2, 3) and swan != 0:
        problems.append(f"Ogg-Saito gives swan = {swan} at p = {p}")
    if values["consistent"] != "true":
        problems.append("consistent = false")
    if values["trace_table"] != values["trace_snc"]:
        problems.append("trace_table != trace_snc")
    if p == 0 and values["holds"] != "true":
        problems.append("holds = false at p = 0")
    return problems


def check_verification(item, output) -> list:
    """Checks on one verification's output: the formatted texts and, for a
    base-change line, the ``agrees`` flag."""
    texts, agrees = output
    problems = check_report(texts[0], item.expect)
    if item.degree is not None:
        bc_expect = {k[3:]: v for k, v in item.expect.items() if k.startswith("bc_")}
        problems += [f"after t -> t^{item.degree}: {x}" for x in check_report(texts[1], bc_expect)]
        if not agrees:
            problems.append(f"base change d = {item.degree} does not agree")
    return problems
