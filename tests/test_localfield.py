import random

import pytest
from fractions import Fraction

from serretrace.localfield import (
    INF,
    ElementSyntaxError,
    LocalFieldSpec,
    NegativeValuation,
    UnsupportedBackend,
    ValuedElement,
    parse_element,
)
from serretrace.polys import RationalFunction

LQ = LocalFieldSpec.parse("laurent:Q")
F2 = LocalFieldSpec.parse("laurent:F2")
F3 = LocalFieldSpec.parse("laurent:F3")
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
