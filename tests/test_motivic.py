import random

import pytest

from serretrace import motivic
from serretrace.cli import main as cli_main
from serretrace.motivic import (
    CountUnavailable,
    GrothElement,
    IntPoly,
    QuotientVerdict,
    eq_mod_L_minus_1,
    euler,
    parse_groth,
    poincare,
    point_count_polynomial,
)


def test_point_is_the_unit():
    gm = GrothElement.gm()
    assert gm * GrothElement.point() == gm
    assert GrothElement.point() * GrothElement.point() == GrothElement.point()


def test_scissor_relation_after_realization():
    # [P^1] - [pt] realizes like L even though the classes stay distinct symbols.
    lhs = GrothElement.proj_space(1) - GrothElement.point()
    assert lhs != GrothElement.lefschetz()
    assert poincare(lhs) == poincare(GrothElement.lefschetz()) == IntPoly((0, 0, 1))


def test_gm_squared_realization():
    sq = GrothElement.gm() * GrothElement.gm()
    assert poincare(sq) == IntPoly((1, 0, -2, 0, 1))
    assert poincare(sq) == poincare(GrothElement.gm()) * poincare(GrothElement.gm())


def test_poincare_on_generators():
    assert poincare(GrothElement.gm()) == IntPoly((-1, 0, 1))
    assert poincare(GrothElement.curve(1)) == IntPoly((1, -2, 1))
    assert poincare(GrothElement.point()) == IntPoly((1,))
    assert poincare(GrothElement.lefschetz()) == IntPoly((0, 0, 1))
    assert poincare(GrothElement.proj_space(3)) == IntPoly((1, 0, 1, 0, 1, 0, 1))


def test_euler_examples():
    assert euler(GrothElement.curve(1)) == 0
    assert euler(GrothElement.lefschetz()) == 1
    assert euler(GrothElement.curve(2)) == -2


def test_quotient_comparison_examples():
    comparison = eq_mod_L_minus_1(GrothElement.curve(1), GrothElement.zero())
    assert comparison.verdict == QuotientVerdict.DISTINCT
    assert comparison.residue == IntPoly((2, -2))

    comparison = eq_mod_L_minus_1(GrothElement.lefschetz(), GrothElement.point())
    assert comparison.verdict == QuotientVerdict.INDISTINGUISHABLE

    comparison = eq_mod_L_minus_1(GrothElement.curve(1), GrothElement.from_int(4))
    assert comparison.verdict == QuotientVerdict.DISTINCT
    assert comparison.residue == IntPoly((-2, -2))


def test_distinct_verdict_is_sound():
    rng = random.Random(12)
    for _ in range(200):
        a = _random_element(rng)
        b = _random_element(rng)
        comparison = eq_mod_L_minus_1(a, b)
        difference = poincare(a - b)
        folded = difference.mod_t2_minus_1()
        if comparison.verdict == QuotientVerdict.DISTINCT:
            assert not folded.is_zero()
        else:
            assert folded.is_zero()


def test_serre_class_euler_per_type():
    from serretrace.kodaira import serre_class
    from serretrace.tate import KodairaType

    def serre_euler(type_text):
        return euler(serre_class(KodairaType.parse(type_text)))

    assert serre_euler("I3") == 0
    assert serre_euler("III*") == 2
    assert serre_euler("I0") == 0
    assert serre_euler("I0*") == 4


# ---- randomized ring-morphism laws -----------------------------------------------

_ATOM_BUILDERS = [
    lambda rng: GrothElement.lefschetz(),
    lambda rng: GrothElement.gm(),
    lambda rng: GrothElement.proj_space(rng.randint(1, 4)),
    lambda rng: GrothElement.curve(rng.randint(0, 3)),
    lambda rng: GrothElement.point(),
]


def _random_element(rng: random.Random) -> GrothElement:
    out = GrothElement.zero()
    for _ in range(rng.randint(0, 4)):
        mono = GrothElement.from_int(rng.randint(-5, 5))
        for _ in range(rng.randint(0, 3)):
            mono = mono * rng.choice(_ATOM_BUILDERS)(rng)
        out = out + mono
    return out


_CHI_ON_ATOMS = {"L": lambda a: 1, "Gm": lambda a: 0, "P": lambda a: a[1] + 1, "C": lambda a: 2 - 2 * a[1]}


def _euler_by_multiplicativity(a: GrothElement) -> int:
    """Independent oracle: chi is multiplicative on products of generators."""
    total = 0
    for mono, coeff in a.terms.items():
        prod = 1
        for atom in mono:
            prod *= _CHI_ON_ATOMS[atom[0]](atom)
        total += coeff * prod
    return total


def test_poincare_is_a_ring_morphism_randomized():
    rng = random.Random(2025)
    for _ in range(300):
        a = _random_element(rng)
        b = _random_element(rng)
        assert poincare(a + b) == poincare(a) + poincare(b)
        assert poincare(a * b) == poincare(a) * poincare(b)


def test_euler_equals_poincare_at_one_randomized():
    rng = random.Random(404)
    for _ in range(300):
        a = _random_element(rng)
        assert euler(a) == poincare(a).evaluate(1) == _euler_by_multiplicativity(a)


def test_degree_and_leading_coefficient_laws():
    for g in range(0, 6):
        poly = poincare(GrothElement.curve(g))
        assert poly.degree() == 2 and poly.leading() == 1
        assert tuple(poly.coeffs) == (1, -2 * g, 1)
    for n in range(1, 11):
        poly = poincare(GrothElement.proj_space(n))
        assert poly.degree() == 2 * n and poly.leading() == 1


def test_ring_axioms_on_canonical_forms():
    rng = random.Random(99)
    for _ in range(60):
        a, b, c = (_random_element(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GrothElement.zero() == a
        assert a * GrothElement.point() == a


def test_point_counts_on_counting_generators():
    assert point_count_polynomial(GrothElement.lefschetz()) == IntPoly((0, 1))
    assert point_count_polynomial(GrothElement.gm()) == IntPoly((-1, 1))
    assert point_count_polynomial(GrothElement.proj_space(2)) == IntPoly((1, 1, 1))
    assert point_count_polynomial(GrothElement.from_int(7)) == IntPoly((7,))
    with pytest.raises(CountUnavailable):
        point_count_polynomial(GrothElement.curve(2))


def test_parse_groth_expressions():
    assert parse_groth("pt") == GrothElement.point()
    assert parse_groth("L^2 - Gm") == (
        GrothElement.lefschetz() * GrothElement.lefschetz() - GrothElement.gm()
    )
    assert parse_groth("C(1) - 4*pt") == GrothElement.curve(1) - GrothElement.from_int(4)
    assert parse_groth("3*(Pn(2) + 1)") == 3 * (GrothElement.proj_space(2) + 1)
    with pytest.raises(ValueError):
        parse_groth("C(1")
    with pytest.raises(ValueError):
        parse_groth("Q + 1")


def test_products_do_not_depend_on_the_factor_order():
    # GrothElement keeps the monomials it is given; __mul__ is what sorts them.
    lgm = GrothElement.lefschetz() * GrothElement.gm()
    gml = GrothElement.gm() * GrothElement.lefschetz()
    assert lgm == gml
    assert hash(lgm) == hash(gml)
    assert str(lgm) == str(gml) == "Gm*L"
    assert parse_groth("L*Gm*C(1)") == parse_groth("C(1)*Gm*L")
    assert str(parse_groth("L*Gm*C(1) + 2*Gm*L")) == "C(1)*Gm*L + 2*Gm*L"


def test_groth_command_realizes_the_poincare_polynomial_twice(monkeypatch, capsys):
    """Once for ``poincare`` and ``euler``, once for the quotient comparison."""
    calls = []
    realize = motivic.poincare

    def counting_poincare(a):
        calls.append(a)
        return realize(a)

    monkeypatch.setattr(motivic, "poincare", counting_poincare)
    assert cli_main(["groth", "(L+Gm+C(1))^2", "--vs", "L"]) == 0
    assert len(calls) == 2
    assert "euler = 1\n" in capsys.readouterr().out
