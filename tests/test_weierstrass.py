import random
import zlib

import pytest

from serretrace.localfield import LocalFieldSpec, ValuedElement, parse_element
from serretrace.weierstrass import (
    SingularCurve,
    StandardInvariants,
    WeierstrassModel,
    ZeroScale,
    invariants,
    transform,
)

LQ = "laurent:Q"


def curve(field, a1="0", a2="0", a3="0", a4="0", a6="0"):
    return WeierstrassModel.from_literals(field, a1, a2, a3, a4, a6)


def test_cusp_family_invariants():
    # y^2 = x^3 + t: Delta = -432 t^2 by direct substitution into the b/c formulas.
    inv = invariants(curve(LQ, a6="t"))
    assert str(inv.delta) == "-432*t^2"
    assert inv.delta.valuation() == 2
    assert inv.c4.is_zero()


def test_unit_discriminant():
    assert invariants(curve(LQ, a6="1")).delta.valuation() == 0


def test_node_family_invariants():
    # y^2 + xy = x^3 + t: b2 = 1, b4 = 0, b6 = 4t, b8 = t,
    # so Delta = -t(1 + 432t) and c4 = 1.
    inv = invariants(curve(LQ, a1="1", a6="t"))
    spec = LocalFieldSpec.parse(LQ)
    assert inv.b2 == parse_element(spec, "1")
    assert inv.b4.is_zero()
    assert inv.b6 == parse_element(spec, "4*t")
    assert inv.b8 == parse_element(spec, "t")
    assert inv.delta == parse_element(spec, "-t*(1+432*t)")
    assert inv.delta.valuation() == 1
    assert inv.c4.valuation() == 0
    assert inv.j.valuation() == -1


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        curve(LQ)  # y^2 = x^3
    with pytest.raises(SingularCurve):
        curve("laurent:F2", a6="t")  # Delta = -432 t^2 = 0 in characteristic 2


def test_non_integral_coefficient_rejected():
    with pytest.raises(ValueError):
        curve(LQ, a6="1/t")


def test_identity_transform():
    W = curve(LQ, a1="1", a6="t")
    assert transform(W, 1, 0, 0, 0) == W


def test_zero_scale_rejected():
    W = curve(LQ, a6="t")
    with pytest.raises(ZeroScale):
        transform(W, 0, 0, 0, 0)


def test_rescale_by_uniformizer_drops_twelve():
    W = curve(LQ, a6="t^6")
    spec = W.spec
    W2 = transform(W, parse_element(spec, "t"), 0, 0, 0)
    assert W2 == curve(LQ, a6="1")
    assert invariants(W).delta.valuation() - invariants(W2).delta.valuation() == 12


def _random_integral(spec, rng):
    if spec.kind == "padic":
        return ValuedElement.from_int(spec, rng.randint(-6, 6))
    hi = spec.residue_char - 1 if spec.residue_char else 3
    lo = 0 if spec.residue_char else -3
    coeffs = [rng.randint(lo, hi) for _ in range(3)]
    text = "+".join(f"{c}*t^{k}" for k, c in enumerate(coeffs)) or "0"
    return parse_element(spec, text)


def _random_unit(spec, rng):
    if spec.kind == "padic":
        p = spec.residue_field.p
        u = rng.choice([1, -1, p + 1, p - 1, 2 * p + 1])
        return ValuedElement.from_int(spec, u)
    if spec.residue_char == 0:
        base = rng.choice([1, -1, 2, 3])
    else:
        base = rng.randint(1, spec.residue_char - 1)
    tail = rng.randint(0, max(spec.residue_char - 1, 1)) if rng.random() < 0.5 else 0
    return parse_element(spec, f"{base}+{tail}*t")


def _random_model(spec, rng):
    while True:
        try:
            return WeierstrassModel(
                spec, *(_random_integral(spec, rng) for _ in range(5))
            )
        except SingularCurve:
            continue


@pytest.mark.parametrize("field", ["laurent:Q", "laurent:F2", "laurent:F3", "padic:2", "padic:5"])
def test_b_and_c_identities_hold_on_random_models(field):
    spec = LocalFieldSpec.parse(field)
    rng = random.Random(zlib.crc32(field.encode()) & 0xFFFF)
    four = ValuedElement.from_int(spec, 4)
    big = ValuedElement.from_int(spec, 1728)
    for _ in range(20):
        W = _random_model(spec, rng)
        inv = invariants(W)
        assert four * inv.b8 == inv.b2 * inv.b6 - inv.b4 * inv.b4
        assert big * inv.delta == inv.c4 * inv.c4 * inv.c4 - inv.c6 * inv.c6


@pytest.mark.parametrize("field", ["laurent:Q", "laurent:F3", "padic:5"])
def test_transform_scaling_and_j_invariance(field):
    spec = LocalFieldSpec.parse(field)
    rng = random.Random(4096 + zlib.crc32(field.encode()) % 100)
    for _ in range(15):
        W = _random_model(spec, rng)
        u = _random_unit(spec, rng)
        r, s, t = (_random_integral(spec, rng) for _ in range(3))
        W2 = transform(W, u, r, s, t)
        v_u = u.valuation()
        assert invariants(W).delta.valuation() - invariants(W2).delta.valuation() == 12 * v_u
        assert invariants(W2).j == invariants(W).j


def test_transform_with_scaling_uniformizer_tracks_delta():
    # u = t on y^2 = x^3 + t^6 scales a6 by t^-6; valuation of Delta drops by 12.
    W = curve(LQ, a6="t^6")
    spec = W.spec
    u = parse_element(spec, "t")
    W2 = transform(W, u, 0, 0, 0)
    assert invariants(W2).delta.valuation() == invariants(W).delta.valuation() - 12


# ---- carried invariants ---------------------------------------------------------

CARRIED_FIELDS = ["laurent:Q", "laurent:F2", "laurent:F3", "padic:2", "padic:5"]
INVARIANT_NAMES = ("b2", "b4", "b6", "b8", "c4", "c6", "delta", "j")


def _assert_carried_invariants_are_fresh(W):
    """Each invariant W carries equals the one computed from its coefficients."""
    carried = invariants(W)
    fresh = invariants(WeierstrassModel(W.spec, *W.coefficients()))
    for name in INVARIANT_NAMES:
        assert getattr(carried, name) == getattr(fresh, name), name


def _random_change(spec, rng, r_zero=False):
    r = ValuedElement.zero(spec) if r_zero else _random_integral(spec, rng)
    return r, _random_integral(spec, rng), _random_integral(spec, rng)


@pytest.mark.parametrize("field", CARRIED_FIELDS)
def test_transform_carries_the_invariants_of_the_new_coefficients(field):
    spec = LocalFieldSpec.parse(field)
    rng = random.Random(8191 + zlib.crc32(field.encode()) % 1000)
    one = ValuedElement.one(spec)
    pi = ValuedElement.uniformizer(spec)
    for _ in range(8):
        W = _random_model(spec, rng)
        # u = 1, with r = 0 and with r random; then a unit u; each model is
        # derived from the last, so invariants are carried from carried ones.
        for u, r_zero in ((one, True), (one, False), (_random_unit(spec, rng), False)):
            W = transform(W, u, *_random_change(spec, rng, r_zero))
            _assert_carried_invariants_are_fresh(W)
        # u = 1/pi gives a model with v(a_i) >= i, which u = pi brings back
        # when v(r) >= 2, v(s) >= 1 and v(t) >= 3.
        r, s, t = _random_change(spec, rng)
        scaled_up = transform(W, one / pi, r, s, t)
        _assert_carried_invariants_are_fresh(scaled_up)
        for r_zero in (True, False):
            r, s, t = _random_change(spec, rng, r_zero)
            back = transform(scaled_up, pi, pi * pi * r, pi * s, pi * pi * pi * t)
            _assert_carried_invariants_are_fresh(back)
            assert invariants(back).delta.valuation() == invariants(W).delta.valuation()


@pytest.mark.parametrize("field", ["laurent:Q", "laurent:F2", "laurent:F3"])
def test_base_change_carries_the_invariants_of_the_substituted_coefficients(field):
    spec = LocalFieldSpec.parse(field)
    rng = random.Random(524287 + zlib.crc32(field.encode()) % 1000)
    for _ in range(4):
        W = _random_model(spec, rng)
        derived = transform(W, _random_unit(spec, rng), *_random_change(spec, rng))
        for source in (W, derived):
            for d in range(1, 6):
                _assert_carried_invariants_are_fresh(source.base_change_substitute(d))


def test_a_carried_invariant_that_breaks_an_identity_is_rejected():
    W = curve(LQ, a1="1", a6="t")
    inv = invariants(W)
    wrong_b8 = StandardInvariants(
        inv.b2, inv.b4, inv.b6, -inv.b8, inv.c4, inv.c6, inv.delta, inv.j
    )
    with pytest.raises(AssertionError, match="4\\*b8"):
        WeierstrassModel(W.spec, *W.coefficients(), carried=wrong_b8)
    wrong_delta = StandardInvariants(
        inv.b2, inv.b4, inv.b6, inv.b8, inv.c4, inv.c6, -inv.delta, inv.j
    )
    with pytest.raises(AssertionError, match="1728"):
        WeierstrassModel(W.spec, *W.coefficients(), carried=wrong_delta)
