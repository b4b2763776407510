import random
import sys

import pytest
from fractions import Fraction

from serretrace import localfield
from serretrace.localfield import (
    INF,
    MAX_POWER_COST,
    ElementSyntaxError,
    LocalFieldSpec,
    NegativeValuation,
    UnsupportedBackend,
    ValuedElement,
    parse_element,
)
from serretrace.polys import Poly, RationalFunction

LQ = LocalFieldSpec.parse("laurent:Q")
F2 = LocalFieldSpec.parse("laurent:F2")
F3 = LocalFieldSpec.parse("laurent:F3")
F5 = LocalFieldSpec.parse("laurent:F5")
P2 = LocalFieldSpec.parse("padic:2")
P5 = LocalFieldSpec.parse("padic:5")


def test_field_spec_round_trip():
    for text in ("padic:2", "padic:7", "laurent:Q", "laurent:F3"):
        assert str(LocalFieldSpec.parse(text)) == text


def test_field_spec_rejects_garbage():
    for text in ("padic:4", "laurent:F4", "laurent:R", "padic", "3adic:3"):
        with pytest.raises(ValueError):
            LocalFieldSpec.parse(text)


def test_residue_characteristics():
    assert LQ.residue_char == 0
    assert F2.residue_char == 2
    assert P5.residue_char == 5


def test_valuation_monomial_dominance():
    assert parse_element(LQ, "t^3/(1+t)").valuation() == 3


def test_valuation_padic():
    assert parse_element(P2, "12").valuation() == 2


def test_valuation_f2_after_cancellation():
    # (t^2+t^5)/(1+t) over F2: the numerator is t^2(1+t)(1+t+t^2), so the
    # denominator cancels and the order is read off t^2 directly.
    x = parse_element(F2, "(t^2+t^5)/(1+t)")
    assert x.valuation() == 2
    assert x.rep.num.t_order() == 2
    assert x.rep.den.degree() == 0


def test_zero_valuation_is_infinite():
    zero = ValuedElement.zero(LQ)
    assert zero.valuation() is INF
    assert zero.valuation() == INF
    assert zero.valuation() >= 0
    assert not zero.valuation() < 10**6


def test_reduce_examples():
    assert parse_element(LQ, "3+5*t").reduce() == Fraction(3)
    assert parse_element(P5, "7").reduce() == 2
    with pytest.raises(NegativeValuation):
        parse_element(LQ, "1/t").reduce()


def test_reduce_strips_positive_valuation():
    assert parse_element(F3, "t^2+2*t^4").reduce() == 0
    assert parse_element(P2, "8/3").reduce() == 0


def test_base_change_examples():
    t6 = parse_element(LQ, "t").base_change_substitute(6)
    assert t6 == parse_element(LQ, "t^6")
    x = parse_element(LQ, "1+t^2").base_change_substitute(2)
    assert x == parse_element(LQ, "1+t^4")
    assert x.valuation() == 0
    y = parse_element(LQ, "t^3/(1-t)").base_change_substitute(2)
    assert y == parse_element(LQ, "t^6/(1-t^2)")
    assert y.valuation() == 6


def test_base_change_rejects_padic():
    with pytest.raises(UnsupportedBackend):
        parse_element(P2, "2").base_change_substitute(3)


def _random_element(spec, rng, integral=False):
    if spec.kind == "padic":
        p = spec.residue_field.p
        num = rng.randint(-40, 40)
        den = rng.randint(1, 40)
        if integral:
            while den % p == 0:
                den = rng.randint(1, 40)
        return ValuedElement.from_fraction(spec, Fraction(num, den))
    lo, hi = (0, max(spec.residue_char - 1, 3)) if spec.residue_char else (-3, 3)
    text_num = "+".join(
        f"{rng.randint(lo, hi)}*t^{k}" for k in range(rng.randint(1, 4))
    )
    num = parse_element(spec, text_num or "0")
    if integral:
        return num
    den_c0 = 0
    while den_c0 == 0:
        den_c0 = rng.randint(lo, hi) if spec.residue_char == 0 else rng.randint(1, spec.residue_char - 1) if spec.residue_char > 2 else 1
    den = parse_element(spec, f"{den_c0}+t")
    return num / den


@pytest.mark.parametrize("spec", [LQ, F2, F3, P2, P5], ids=str)
def test_valuation_is_additive_and_ultrametric(spec):
    rng = random.Random(20240 + spec.residue_char)
    for _ in range(60):
        x = _random_element(spec, rng)
        y = _random_element(spec, rng)
        vx, vy = x.valuation(), y.valuation()
        assert (x * y).valuation() == vx + vy
        if not (x + y).is_zero():
            s = (x + y).valuation()
            assert s >= min(vx, vy) if (vx is not INF and vy is not INF) else True


@pytest.mark.parametrize("spec", [LQ, F2, F3, P2, P5], ids=str)
def test_reduce_is_a_ring_morphism_on_R(spec):
    rng = random.Random(777 + spec.residue_char)
    k = spec.residue_field
    for _ in range(60):
        x = _random_element(spec, rng, integral=True)
        y = _random_element(spec, rng, integral=True)
        assert (x * y).reduce() == k.mul(x.reduce(), y.reduce())
        assert (x + y).reduce() == k.add(x.reduce(), y.reduce())


@pytest.mark.parametrize("spec", [LQ, F2, F3], ids=str)
@pytest.mark.parametrize("d", [2, 3, 5])
def test_base_change_is_a_morphism_scaling_valuation(spec, d):
    rng = random.Random(99 * d + spec.residue_char)
    for _ in range(25):
        x = _random_element(spec, rng)
        y = _random_element(spec, rng)
        assert (x * y).base_change_substitute(d) == x.base_change_substitute(d) * y.base_change_substitute(d)
        assert (x + y).base_change_substitute(d) == x.base_change_substitute(d) + y.base_change_substitute(d)
        if not x.is_zero():
            assert x.base_change_substitute(d).valuation() == d * x.valuation()


def test_valuation_infinite_iff_zero():
    for spec in (LQ, F2, P2):
        assert ValuedElement.zero(spec).valuation() is INF
        assert parse_element(spec, "1").valuation() == 0


def test_lift_residue_reduces_back():
    for spec in (LQ, F2, F3, P2, P5):
        k = spec.residue_field
        values = [k.zero, k.one]
        if k.char:
            values.append(k.normalize(k.char - 1))
        else:
            values.append(Fraction(-7, 3))
        for v in values:
            assert ValuedElement.lift_residue(spec, v).reduce() == v


def test_parse_rejects_t_in_padic():
    with pytest.raises(ValueError):
        parse_element(P2, "t+1")


def test_parse_rejects_malformed():
    for bad in ("", "t^", "(1+t", "1++", "x+1"):
        with pytest.raises(ValueError):
            parse_element(LQ, bad)


# ---- literal powers and shifts -------------------------------------------------


@pytest.mark.parametrize(
    "spec, base",
    [(LQ, "1+t"), (F3, "1+t"), (F2, "1+t"), (LQ, "t/(2+t)"), (F3, "(1+t^2)/t"), (P5, "2"), (P5, "10/3")],
    ids=str,
)
def test_parsed_powers_match_repeated_products_and_quotients(spec, base):
    x = parse_element(spec, base)
    one = ValuedElement.one(spec)
    want = {0: one}
    for e in range(1, 41):
        want[e] = want[e - 1] * x
    for e in range(1, 7):
        want[-e] = want[-e + 1] / x
    for e, value in want.items():
        got = parse_element(spec, f"({base})^{e}")
        assert got == value
        if spec.kind == "laurent":
            assert (got.rep.num.coeffs, got.rep.den.coeffs) == (value.rep.num.coeffs, value.rep.den.coeffs)


def test_powers_of_zero():
    for spec in (LQ, F2, P5):
        assert parse_element(spec, "0^0") == ValuedElement.one(spec)
        assert parse_element(spec, "0^7").is_zero()
        with pytest.raises(ZeroDivisionError):
            parse_element(spec, "0^-1")


def test_literal_powers_beyond_the_limits_are_rejected_before_computing():
    for spec, text in (
        (LQ, "t^10001"),
        (LQ, "(t^200)^60"),
        (LQ, "(1/(1+t^101))^100"),
        (LQ, "t^-10001"),
        (P5, "(2^1000)^2000"),
        (P5, "(1/2^1000)^-2000"),
        (LQ, "(2^1000)^2000"),
        (F3, "1^100000"),
    ):
        with pytest.raises(ElementSyntaxError):
            parse_element(spec, text)
    # At the limits themselves, and over F_p where coefficients stay small.
    assert parse_element(LQ, "(t^100)^100").valuation() == 10000
    assert parse_element(F3, "(2^1000)^2000") == ValuedElement.one(F3)


def test_whole_literals_beyond_the_degree_limit_are_rejected_before_multiplying():
    for spec in (LQ, F3):
        # Each product or cross-multiplication would pass t-degree 10 000,
        # even where the reduced value would not (t^6000 for the second).
        for text in ("t^6000*t^6000", "t^6000/t^6000*t^6000", "1/t^6000 + 1/(1+t^6000)"):
            with pytest.raises(ElementSyntaxError, match="beyond the limit 10000"):
                parse_element(spec, text)
        assert parse_element(spec, "t^5000*t^5000").valuation() == 10000


def test_integer_literals_beyond_the_digit_limit_are_rejected():
    for spec in (LQ, F3, P5):
        for text in ("1" * 4301, "2 + 3*" + "7" * 4301, "t^" + "0" * 4300 + "1"):
            with pytest.raises(ElementSyntaxError, match="4301 digits is beyond the limit 4300"):
                parse_element(spec, text if spec.kind == "laurent" else text.replace("t", "5"))
    assert parse_element(P5, "1" * 4300).rep == int("1" * 4300)


def test_values_beyond_the_digit_limit_are_rejected():
    too_long = "more than 4300 digits is beyond the limit 4300"
    for spec, text in (
        (P5, "10^4300"),
        (P5, "(10^3000)^2"),
        (P5, "1/(10^3000)^2"),
        (P5, "10^2200*10^2200"),
        (LQ, "(10^3000*t)^2"),
        (LQ, "1/(10^3000)^2 + t"),
        (LQ, "t/(10^2200*10^2200)"),
    ):
        with pytest.raises(ElementSyntaxError, match=too_long):
            parse_element(spec, text)
    # At the limit itself, and over F_p where coefficients stay below p.
    assert parse_element(P5, "10^4299").valuation() == 4299
    assert parse_element(LQ, "(10^4299 + t)/10^4299").rep.num.coeffs[1] == Fraction(1, 10**4299)
    assert parse_element(F3, "(10^3000)^2") == ValuedElement.one(F3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_the_digit_limit_does_not_depend_on_the_interpreter_setting():
    saved = sys.get_int_max_str_digits()
    try:
        for setting in (0, 10_000):
            sys.set_int_max_str_digits(setting)
            with pytest.raises(ElementSyntaxError, match="4301 digits"):
                parse_element(P5, "1" * 4301)
            with pytest.raises(ElementSyntaxError, match="more than 4300 digits"):
                parse_element(P5, "(10^3000)^2")
    finally:
        sys.set_int_max_str_digits(saved)


def _count_products(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(sum(map(bool, self.coeffs)) * sum(map(bool, other.coeffs)))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    return calls


def test_dense_powers_beyond_the_cost_limit_are_rejected_before_multiplying(monkeypatch):
    calls = _count_products(monkeypatch)
    for spec, text in (
        (LQ, "(1+t)^2000"),
        (LQ, "((1+t)/(1-t))^1000"),  # each part alone is within the limit
        (LQ, "(1/3 + t/7 + 5*t^2)^300"),
        (LQ, "(1 + 1000000*t)^600"),
        (LocalFieldSpec.parse("laurent:F1000003"), "(1 + 2*t + 3*t^2)^5000"),
    ):
        calls.clear()
        parse_element(spec, text.rsplit("^", 1)[0])
        base_products = len(calls)
        calls.clear()
        with pytest.raises(ElementSyntaxError, match=f"beyond the limit {MAX_POWER_COST}"):
            parse_element(spec, text)
        assert len(calls) == base_products, text


def test_power_cost_limit_accepts_sparse_and_cheap_powers():
    check = localfield._check_power_size
    # Not evaluated: each is within the limit, as is every monomial power.
    check(parse_element(LQ, "1+t"), 1000)
    check(parse_element(LQ, "1+t^50"), 200)
    check(parse_element(LQ, "2*t^3"), 3000)
    check(parse_element(LQ, "1/(1+t)"), -1000)
    # Over F_p the digits of e bound the terms: (1+t)^6000 has 40 over F5.
    for spec in (F2, F3, F5):
        check(parse_element(spec, "1+t"), 6000)


@pytest.mark.parametrize("spec", [LQ, F2, F3, F5], ids=str)
def test_power_cost_bounds_the_products_of_the_squaring_chain(spec, monkeypatch):
    calls = _count_products(monkeypatch)
    rng = random.Random(5)
    p = spec.residue_char
    for _ in range(40):
        # Two or more terms: monomial powers are not estimated.
        terms = [f"{rng.randint(1, (p or 5) - 1)}*t^{k}" for k in rng.sample(range(7), rng.randint(2, 4))]
        base = parse_element(spec, "+".join(terms))
        e = rng.randint(2, 60)
        calls.clear()
        localfield._power(base.rep.num, e, Poly._trimmed(spec.residue_field, [spec.residue_field.one]))
        assert sum(calls) <= localfield._power_cost(base.rep.num, e, p), (str(base), e)


def test_power_limits_read_the_reduced_base():
    # The unreduced base has t-degree 2, the reduced one t-degree 1.
    for spec in (F2, F3, F5):
        x = parse_element(spec, "((t+1)^2/(t+1))^6000")
        assert x.rep.num.degree() == 6000 and x.rep.den.degree() == 0
    assert parse_element(LQ, "((1+t)/(1+t))^6000") == ValuedElement.one(LQ)


def test_division_by_zero_in_every_position():
    # 0^-1 is pinned in test_powers_of_zero.
    for spec, text in (
        (LQ, "1/(t-t)"),
        (LQ, "(t-t)^-2"),
        (F3, "1/(t-t)"),
        (F3, "(1+t)/(3*t)"),
        (P5, "1/(5-5)"),
        (P5, "(5-5)^-3"),
    ):
        with pytest.raises(ZeroDivisionError, match="division by zero in K"):
            parse_element(spec, text)


@pytest.mark.parametrize("spec", [LQ, F3], ids=str)
def test_literals_take_a_gcd_only_for_a_non_constant_denominator(spec, monkeypatch):
    calls = []
    gcd_monic = Poly.gcd_monic

    def counted(self, other):
        calls.append(other)
        return gcd_monic(self, other)

    monkeypatch.setattr(Poly, "gcd_monic", counted)
    for text, gcds in (
        ("3 - 5*t + 7*t^4", 0),
        ("t^500", 0),
        ("(1+t)^3*(2-t)", 0),
        ("(7 - 18*t + 11*t^2)/(1 + 4*t + 6*t^2 + 4*t^3 + t^4)", 1),
        ("(t^2 + t^5)/(1 + t)", 1),
    ):
        calls.clear()
        parse_element(spec, text)
        assert len(calls) == gcds, text


# ---- fraction-free parsing against field arithmetic ------------------------------

_ATOM, _SIGN, _POWER, _PRODUCT, _SUM = 5, 3, 4, 2, 1


def _random_tree(rng, spec, depth, powers=True):
    """A random expression: ("int", n), ("t",), ("neg", x), ("^", x, e) or (op, x, y)."""
    if depth == 0 or rng.random() < 0.2:
        if spec.kind == "laurent" and rng.random() < 0.5:
            return ("t",)
        return ("int", rng.choice([0, 1, 2, 3, 5, rng.randint(0, 10**6)]))
    op = rng.choice(["+", "-", "*", "/", "neg", "^"] if powers else ["+", "-", "*", "/", "neg"])
    if op == "neg":
        return ("neg", _random_tree(rng, spec, depth - 1, powers))
    if op == "^":
        # No power inside a power base, which keeps degrees and sizes small.
        return ("^", _random_tree(rng, spec, depth - 1, False), rng.randint(-4, 6))
    return (op, _random_tree(rng, spec, depth - 1, powers), _random_tree(rng, spec, depth - 1, powers))


def _render(rng, node):
    """Text of a tree and its precedence, with parentheses where needed and at random."""

    def wrap(child, need):
        text, level = _render(rng, child)
        return f"({text})" if level < need or rng.random() < 0.1 else text

    kind = node[0]
    if kind == "int":
        return str(node[1]), _ATOM
    if kind == "t":
        return "t", _ATOM
    if kind == "neg":
        return "-" + wrap(node[1], _POWER), _SIGN
    if kind == "^":
        return wrap(node[1], _ATOM) + rng.choice(["^", "**"]) + str(node[2]), _POWER
    if kind in ("+", "-"):
        return f"{wrap(node[1], _SUM)} {kind} {wrap(node[2], _PRODUCT)}", _SUM
    return f"{wrap(node[1], _PRODUCT)}{kind}{wrap(node[2], _SIGN)}", _PRODUCT


def _evaluate(spec, node) -> ValuedElement:
    """The tree's value by ValuedElement operators, powers by repeated * and 1/x."""
    kind = node[0]
    if kind == "int":
        return ValuedElement.from_int(spec, node[1])
    if kind == "t":
        return ValuedElement.uniformizer(spec)
    if kind == "neg":
        return -_evaluate(spec, node[1])
    if kind == "^":
        one = ValuedElement.one(spec)
        base = _evaluate(spec, node[1])
        factor = base if node[2] >= 0 else one / base
        out = one
        for _ in range(abs(node[2])):
            out = out * factor
        return out
    x, y = _evaluate(spec, node[1]), _evaluate(spec, node[2])
    if kind == "+":
        return x + y
    if kind == "-":
        return x - y
    if kind == "*":
        return x * y
    return x / y


@pytest.mark.parametrize("spec", [LQ, F2, F3, F5, P2, P5], ids=str)
def test_parsing_matches_field_arithmetic_on_random_expressions(spec):
    rng = random.Random(8128 + spec.residue_char + (spec.kind == "padic"))
    zero_divisions = 0
    for _ in range(150):
        tree = _random_tree(rng, spec, rng.randint(1, 4))
        text, _level = _render(rng, tree)
        try:
            want = _evaluate(spec, tree)
        except ZeroDivisionError:
            zero_divisions += 1
            with pytest.raises(ZeroDivisionError):
                parse_element(spec, text)
            continue
        assert parse_element(spec, text) == want, text
    assert zero_divisions > 0


def _shift_by_constructor(x: ValuedElement, k: int) -> RationalFunction:
    num, den = x.rep.num, x.rep.den
    if k > 0:
        return RationalFunction(num, den.shift(k))
    return RationalFunction(num.shift(-k), den)


@pytest.mark.parametrize("spec", [LQ, F2, F3], ids=str)
def test_shift_down_matches_the_normalizing_constructor(spec):
    texts = ["t^3/(1+t)", "(1+t)/t^2", "(2+t)/(1+t+t^3)", "1/t^7", "t^2+t^5", "0", "1"]
    for text in texts:
        x = parse_element(spec, text)
        for k in range(-5, 6):
            got = x.shift_down(k)
            want = _shift_by_constructor(x, k)
            assert (got.rep.num.coeffs, got.rep.den.coeffs) == (want.num.coeffs, want.den.coeffs)
            if not x.is_zero():
                assert got.valuation() == x.valuation() - k


def test_padic_shift_down_divides_by_powers_of_p():
    x = parse_element(P5, "50/3")
    for k in range(-5, 6):
        assert x.shift_down(k).rep == Fraction(50, 3) / Fraction(5) ** k
