import operator
import random
from fractions import Fraction

import pytest

from serretrace.localfield import LocalFieldSpec
from serretrace.polys import (
    CERTIFICATE_PRIME,
    MILLER_RABIN_LIMIT,
    QQ,
    Poly,
    PrimeField,
    RationalFunction,
    _coprime_certified,
    _is_prime,
)

P = CERTIFICATE_PRIME
FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def _euclid_monic(a: Poly, b: Poly) -> Poly:
    """Plain Euclid over the field, with no modular shortcut."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _power(p: Poly, k: int) -> Poly:
    out = Poly.constant(p.field, p.field.one)
    for _ in range(k):
        out = out * p
    return out


def _random_coeff(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randrange(field.p)


def _random_poly(field, rng, degree):
    return Poly(field, [_random_coeff(field, rng) for _ in range(degree + 1)])


def _random_factor_product(field, rng):
    """A product drawn from shared factors (1+t)^k and t^k and random ones, so
    that operands often have common factors to cancel."""
    t = Poly.gen(field)
    one_plus_t = t + Poly.constant(field, 1)
    out = Poly.constant(field, field.one)
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            out = out * _power(one_plus_t, rng.randint(1, 3))
        elif kind == 1:
            out = out * _power(t, rng.randint(1, 3))
        else:
            factor = _random_poly(field, rng, rng.randint(0, 3))
            if not factor.is_zero():
                out = out * factor
    return out.scale(field.normalize(rng.choice([1, 2, 3]) if field is QQ else 1))


def _random_rational_function(field, rng):
    num = _random_factor_product(field, rng)
    if rng.random() < 0.1:
        num = Poly(field)
    return RationalFunction(num, _random_factor_product(field, rng))


def _schoolbook(op, x, y):
    a, b, c, d = x.num, x.den, y.num, y.den
    if op == "+":
        return RationalFunction(a * d + c * b, b * d)
    if op == "-":
        return RationalFunction(a * d - c * b, b * d)
    if op == "*":
        return RationalFunction(a * c, b * d)
    return RationalFunction(a * d, b * c)


OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_operations_match_the_normalizing_constructor(field, op):
    rng = random.Random(4417 + 31 * field.char + ord(op))
    for _ in range(150):
        x = _random_rational_function(field, rng)
        y = _random_rational_function(field, rng)
        if op == "/" and y.is_zero():
            continue
        got = OPERATIONS[op](x, y)
        want = _schoolbook(op, x, y)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        assert _euclid_monic(got.num, got.den).degree() == 0
        assert got.den.leading() == field.one


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_operations_on_shared_factor_denominators(field):
    t = Poly.gen(field)
    one = Poly.constant(field, field.one)
    one_plus_t = t + one
    for k in range(1, 5):
        x = RationalFunction(t + Poly.constant(field, 2), _power(one_plus_t, k))
        y = RationalFunction(one, _power(one_plus_t, k + 1) * _power(t, k))
        for op in "+-*/":
            got = OPERATIONS[op](x, y)
            want = _schoolbook(op, x, y)
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        # Sums that cancel to zero, and to a constant over a shared factor.
        assert (x - x).is_zero() and (x - x).den.coeffs == (field.one,)
        inverse = RationalFunction(_power(one_plus_t, k), t + Poly.constant(field, 2))
        assert x * inverse == RationalFunction.constant(field, 1)
        assert x / x == RationalFunction.constant(field, 1)


def test_gcd_monic_over_q_equals_plain_euclid():
    rng = random.Random(6101)
    for _ in range(300):
        common = _random_poly(QQ, rng, rng.randint(0, 3))
        a = _random_poly(QQ, rng, rng.randint(0, 4))
        b = _random_poly(QQ, rng, rng.randint(0, 4))
        if rng.random() < 0.5 and not common.is_zero():
            a, b = a * common, b * common
        if a.is_zero() and b.is_zero():
            continue
        assert a.gcd_monic(b) == _euclid_monic(a, b)


def _sparse(field, terms):
    """Sum of c * t^k over (k, c) pairs."""
    out = [0] * (max(k for k, _ in terms) + 1)
    for k, c in terms:
        out[k] = c
    return Poly(field, out)


def test_primitive_remainder_gcd_over_q_equals_plain_euclid():
    # Operands with a common factor, so the coprimality certificate never
    # applies and every gcd runs on primitive pseudo-remainders.
    t = Poly.gen(QQ)
    rng = random.Random(7211)
    # The pair whose remainders over Q swell: gcd t^10 + 2, with 2-bit
    # coefficients, after remainders of hundreds of bits.
    common = _sparse(QQ, [(10, 1), (0, 2)])
    pairs = [
        (
            common * _sparse(QQ, [(60, 1), (0, 2)]) * _sparse(QQ, [(70, 1), (0, -1)]),
            common * _sparse(QQ, [(66, 1), (0, 1)]) * _sparse(QQ, [(75, 1), (0, 2)]),
        ),
        (t * t, t),  # one operand divides the other
    ]
    for _ in range(150):
        shared = _random_poly(QQ, rng, rng.randint(1, 4))
        if shared.degree() < 1:
            continue
        a = shared * _random_poly(QQ, rng, rng.randint(0, 6))
        b = shared.scale(Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 30)))
        b = b * _random_poly(QQ, rng, rng.randint(0, 6))
        if a.degree() > 0 and b.degree() > 0:
            pairs.append((a, b))
    for a, b in pairs:
        want = _euclid_monic(a, b)
        for x, y in ((a, b), (b, a)):
            got = x.gcd_monic(y)
            assert got == want
            assert all(type(c) in (int, Fraction) for c in got.coeffs)
    assert pairs[0][0].gcd_monic(pairs[0][1]) == common


def test_gcd_monic_with_coefficients_divisible_by_the_certificate_prime():
    t = Poly.gen(QQ)
    one = Poly.constant(QQ, 1)
    cases = [
        # Leading coefficient P: mod P the common factor P t + 1 becomes a
        # unit, so t (P t + 1) and (t + 1)(P t + 1) look coprime there.
        (t * (t.scale(P) + one), (t + one) * (t.scale(P) + one)),
        # A denominator P: the common factor t / P + 1 has no image mod P.
        (t * (t.scale(Fraction(1, P)) + one), (t + one) * (t.scale(Fraction(1, P)) + one)),
        # A lower numerator multiple of P keeps both degrees, so the
        # certificate applies.
        (t * t + t.scale(3 * P), t + one),
        # A multiple of P in a coefficient of an operand whose gcd is not 1.
        ((t + one) * (t + Poly.constant(QQ, 2 * P)), (t + one) * (t + Poly.constant(QQ, Fraction(5, 7)))),
    ]
    for a, b in cases:
        assert a.gcd_monic(b) == _euclid_monic(a, b)
        assert b.gcd_monic(a) == _euclid_monic(b, a)
    assert _euclid_monic(*cases[0]) == t + Poly.constant(QQ, Fraction(1, P))
    assert not _coprime_certified(cases[0][0].coeffs, cases[0][1].coeffs)
    assert not _coprime_certified(cases[1][0].coeffs, cases[1][1].coeffs)
    assert _coprime_certified(cases[2][0].coeffs, cases[2][1].coeffs)
    assert not _coprime_certified(cases[3][0].coeffs, cases[3][1].coeffs)


def test_operations_with_coefficients_divisible_by_the_certificate_prime():
    t = Poly.gen(QQ)
    one = Poly.constant(QQ, 1)
    shared = t.scale(P) + one
    x = RationalFunction(t, shared * (t + Poly.constant(QQ, Fraction(P, 3))))
    y = RationalFunction(t.scale(Fraction(1, P)) + one, shared * (t + one))
    for op in "+-*/":
        got = OPERATIONS[op](x, y)
        want = _schoolbook(op, x, y)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)


def test_is_prime_matches_trial_division_on_small_numbers():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 5000):
        assert _is_prime(n) == by_trial_division(n)


def test_is_prime_rejects_pseudoprimes_and_accepts_large_primes():
    for carmichael in (561, 41041):
        assert not _is_prime(carmichael)
    for strong_pseudoprime_to_base_2 in (2047, 3215031751):
        assert not _is_prime(strong_pseudoprime_to_base_2)
    assert _is_prime(10**12 + 39)
    assert not _is_prime((10**12 + 39) * 1000003)
    assert _is_prime(CERTIFICATE_PRIME)
    assert PrimeField(10**12 + 39).p == 10**12 + 39


def test_prime_field_rejects_primes_beyond_the_proven_range():
    with pytest.raises(ValueError):
        PrimeField(MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)  # prime, but above the bound
    with pytest.raises(ValueError):
        LocalFieldSpec.parse(f"padic:{2**89 - 1}")


# ---- sparse operands against a dense schoolbook ------------------------------------


def _trim(field, cs):
    while cs and cs[-1] == field.zero:
        cs.pop()
    return cs


def _dense_mul(field, a, b):
    """Schoolbook product over every coefficient pair, zeros included."""
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(field, out)


def _dense_divmod(field, a, b):
    """Long division that works on every coefficient, zeros included."""
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    quo = [field.zero] * (len(a) - len(b) + 1)
    inv_lead = field.invert(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = field.mul(rem[i + len(b) - 1], inv_lead)
        quo[i] = c
        for j, d in enumerate(b):
            rem[i + j] = field.sub(rem[i + j], field.mul(c, d))
    return _trim(field, quo), _trim(field, rem[: len(b) - 1])


def _dense_gcd_monic(field, a, b):
    while b:
        a, b = b, _dense_divmod(field, a, b)[1]
    if not a:
        return a
    inv_lead = field.invert(a[-1])
    return [field.mul(inv_lead, c) for c in a]


def _random_sparse_poly(field, rng, max_degree):
    degree = rng.randint(0, max_degree)
    coeffs = [field.zero] * (degree + 1)
    for k in rng.sample(range(degree + 1), min(degree + 1, rng.randint(1, 6))):
        coeffs[k] = field.normalize(rng.randint(1, 5) * rng.choice([1, -1]))
    return Poly(field, coeffs)


def _random_binomial_product(field, rng, factors, max_exponent):
    """t^k times factors t^e + c.  Euclid on two such products keeps its
    remainders sparse over Q, where a dense remainder sequence of degree
    300 would take seconds."""
    out = Poly(field, [0] * rng.randint(0, 20) + [1])
    for _ in range(factors):
        e = rng.randint(1, max_exponent)
        out = out * Poly(field, [rng.choice([1, -1, 2])] + [0] * (e - 1) + [1])
    return out


def _assert_in_field(field, p: Poly):
    if field is QQ:
        assert all(type(c) in (int, Fraction) for c in p.coeffs)
    else:
        assert all(type(c) is int and 0 <= c < field.p for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != field.zero


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_products_and_divisions_match_a_dense_schoolbook(field):
    rng = random.Random(9001 + field.char)
    # Over Q the dense reference takes about 0.15 s a round at degree 300.
    for _ in range(6 if field is QQ else 40):
        a = _random_sparse_poly(field, rng, 300)
        b = _random_sparse_poly(field, rng, 300)
        for x, y in ((a, b), (b, a), (a, Poly(field)), (Poly(field), b)):
            product = x * y
            assert list(product.coeffs) == _dense_mul(field, list(x.coeffs), list(y.coeffs))
            _assert_in_field(field, product)
        for x, y in ((a, b), (b, a), (a * b, b), (a * b + a, a)):
            if y.is_zero():
                continue
            quo, rem = x.divmod(y)
            want_quo, want_rem = _dense_divmod(field, list(x.coeffs), list(y.coeffs))
            assert (list(quo.coeffs), list(rem.coeffs)) == (want_quo, want_rem)
            assert quo * y + rem == x
            _assert_in_field(field, quo)
            _assert_in_field(field, rem)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_gcd_monic_matches_a_dense_euclid(field):
    rng = random.Random(7207 + field.char)
    for _ in range(15):
        common = _random_binomial_product(field, rng, rng.randint(0, 2), 70)
        a = common * _random_binomial_product(field, rng, 1, 140)
        b = common * _random_binomial_product(field, rng, 1, 140)
        got = a.gcd_monic(b)
        assert list(got.coeffs) == _dense_gcd_monic(field, list(a.coeffs), list(b.coeffs))
        _assert_in_field(field, got)


# ---- integral rationals as ints ----------------------------------------------------


def _random_rational(rng):
    """A rational that is integral about half the time, as an int or a Fraction."""
    den = rng.choice([1, 1, 2, 3, 7, 12])
    value = Fraction(rng.randint(-40, 40), den)
    if value.denominator == 1 and rng.random() < 0.5:
        return value.numerator
    return value


def _assert_canonical(got, want: Fraction):
    assert got == want
    if want.denominator == 1:
        assert type(got) is int
    else:
        assert type(got) is Fraction


def test_rational_field_matches_fraction_arithmetic_on_mixed_operands():
    rng = random.Random(5309)
    for _ in range(2000):
        a, b = _random_rational(rng), _random_rational(rng)
        fa, fb = Fraction(a), Fraction(b)
        assert QQ.add(a, b) == fa + fb
        assert QQ.sub(a, b) == fa - fb
        assert QQ.mul(a, b) == fa * fb
        assert QQ.neg(a) == -fa
        for got in (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)):
            assert type(got) in (int, Fraction) and hash(got) == hash(Fraction(got))
        _assert_canonical(QQ.normalize(a), fa)
        _assert_canonical(QQ.from_fraction(fa), fa)
        if fb:
            _assert_canonical(QQ.invert(b), 1 / fb)
            _assert_canonical(QQ.div(a, b), fa / fb)
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.invert(b)
            with pytest.raises(ZeroDivisionError):
                QQ.div(a, b)


def test_rational_field_returns_int_exactly_when_integral_and_never_bool():
    for value in (True, False):
        assert type(QQ.normalize(value)) is int and QQ.normalize(value) == value
    assert type(QQ.zero) is int and type(QQ.one) is int
    for q in (Fraction(6, 3), Fraction(-4), Fraction(0), 5):
        _assert_canonical(QQ.normalize(q), Fraction(q))
        _assert_canonical(QQ.from_fraction(Fraction(q)), Fraction(q))
    _assert_canonical(QQ.normalize(Fraction(5, 3)), Fraction(5, 3))
    _assert_canonical(QQ.invert(Fraction(1, 3)), Fraction(3))
    _assert_canonical(QQ.invert(Fraction(-1, 3)), Fraction(-3))
    _assert_canonical(QQ.invert(-1), Fraction(-1))
    _assert_canonical(QQ.invert(3), Fraction(1, 3))
    _assert_canonical(QQ.div(Fraction(3, 2), Fraction(3, 4)), Fraction(2))
    _assert_canonical(QQ.div(6, 4), Fraction(3, 2))
    with pytest.raises(TypeError):
        QQ.normalize(1.5)


def test_int_and_fraction_coefficients_build_equal_objects():
    for field in (QQ, PrimeField(5)):
        t = Poly.gen(field)
        for value, twin in ((3, Fraction(3)), (-2, Fraction(-4, 2)), (0, Fraction(0))):
            p, q = Poly(field, [value, 1, value]), Poly(field, [twin, 1, twin])
            assert p == q and hash(p) == hash(q) and str(p) == str(q)
            x, y = RationalFunction.constant(field, value), RationalFunction.constant(field, twin)
            assert x == y and hash(x) == hash(y) and str(x) == str(y)
            x, y = RationalFunction(p, t + Poly.constant(field, 1)), RationalFunction(q, t + Poly.constant(field, 1))
            assert x == y and hash(x) == hash(y) and str(x) == str(y)
    # An integral value left as a Fraction by bare arithmetic is still the same
    # stored value.
    stale = Poly._trimmed(QQ, [Fraction(3), Fraction(1, 2), Fraction(1)])
    fresh = Poly(QQ, [3, Fraction(1, 2), 1])
    assert stale == fresh and hash(stale) == hash(fresh) and str(stale) == str(fresh)
    assert str(fresh) == "3 + 1/2*t + t^2"


def test_integral_coefficients_stay_ints_through_parsing_and_gcd():
    from serretrace.localfield import parse_element

    spec = LocalFieldSpec.parse("laurent:Q")
    x = parse_element(spec, "(-5 + 12*t - 7*t^2 + t^3)/(1 + 6*t + 15*t^2 + 20*t^3 + t^6)")
    y = parse_element(spec, "(2 - 4*t)/(1 + t)^2 * (3*t + 6)")
    # Integer numerators over monic integer denominators: no step divides.
    for value in (x, y, x * y, x + y, x - y):
        coeffs = value.rep.num.coeffs + value.rep.den.coeffs
        assert all(type(c) is int for c in coeffs)
    assert type(parse_element(spec, "3/4").reduce()) is Fraction
    assert type(parse_element(spec, "8/4").reduce()) is int
    # The primitive-remainder path divides by the gcd's leading coefficient.
    common = _sparse(QQ, [(3, 2), (0, 4)])
    a = common * _sparse(QQ, [(5, 3), (0, 1)])
    b = common.scale(Fraction(3, 7)) * _sparse(QQ, [(4, 1), (1, -1)])
    assert not _coprime_certified(a.coeffs, b.coeffs)
    got = a.gcd_monic(b)
    assert got.coeffs == (2, 0, 0, 1)
    assert all(type(c) is int for c in got.coeffs)
