"""Integral Weierstrass models and their standard invariants.

A model is the long equation y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
with all coefficients in the valuation ring.  The long form is essential:
residue characteristics 2 and 3 are the interesting cases and short forms
cannot represent them faithfully.

The invariants b2..b8, c4, c6, Delta and j are computed from the
coefficients once per input model.  A model derived from another by
``transform`` or ``base_change_substitute`` gets them from its source's by
the transformation laws (Silverman, The Arithmetic of Elliptic Curves,
III Table 3.1), not from its own coefficients.  Every model, input or
derived, still passes the identities 4*b8 = b2*b6 - b4^2 and
1728*Delta = c4^3 - c6^2 when it is built, which catches sign mistakes in
the formulas and in the laws immediately.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .localfield import LocalFieldSpec, ValuedElement, parse_element


class SingularCurve(ValueError):
    """The discriminant vanishes; there is no smooth generic fiber."""


class ZeroScale(ValueError):
    """Coordinate change with u = 0."""


class StandardInvariants(NamedTuple):
    b2: ValuedElement
    b4: ValuedElement
    b6: ValuedElement
    b8: ValuedElement
    c4: ValuedElement
    c6: ValuedElement
    delta: ValuedElement
    j: ValuedElement


class WeierstrassModel:
    """Long Weierstrass coefficients over the valuation ring R.

    ``carried`` gives the model's invariants when they are already known,
    as ``transform`` and ``base_change_substitute`` know them; they are
    checked by the two identities instead of being recomputed.
    """

    __slots__ = ("spec", "a1", "a2", "a3", "a4", "a6", "_invariants")

    def __init__(
        self, spec: LocalFieldSpec, a1, a2, a3, a4, a6,
        *, carried: Optional[StandardInvariants] = None,
    ):
        coeffs = {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a6": a6}
        for name, a in coeffs.items():
            if not isinstance(a, ValuedElement) or a.spec != spec:
                raise ValueError(f"{name} must be a ValuedElement over {spec}")
            if not a.is_integral():
                raise ValueError(f"{name} = {a} is not integral (v = {a.valuation()})")
        self.spec = spec
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self._invariants = None
        if carried is None:
            invariants(self)
        else:
            _check_invariants(
                spec, carried.b2, carried.b4, carried.b6, carried.b8,
                carried.c4, carried.c6, carried.delta,
            )
            self._invariants = carried

    @classmethod
    def from_literals(cls, field_spec: str, a1: str, a2: str, a3: str, a4: str, a6: str):
        spec = LocalFieldSpec.parse(field_spec)
        return cls(spec, *(parse_element(spec, s) for s in (a1, a2, a3, a4, a6)))

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def base_change_substitute(self, d: int) -> "WeierstrassModel":
        """Apply t -> t^d to every coefficient (laurent backends).

        t -> t^d is a ring homomorphism, so it maps each invariant of this
        model to the same invariant of the substituted one.
        """
        inv = invariants(self)
        carried = StandardInvariants(
            *(
                x.base_change_substitute(d)
                for x in (inv.b2, inv.b4, inv.b6, inv.b8, inv.c4, inv.c6, inv.delta, inv.j)
            )
        )
        return WeierstrassModel(
            self.spec, *(a.base_change_substitute(d) for a in self.coefficients()),
            carried=carried,
        )

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassModel)
            and self.spec == other.spec
            and self.coefficients() == other.coefficients()
        )

    def __str__(self):
        return (
            f"[a1={self.a1}, a2={self.a2}, a3={self.a3}, "
            f"a4={self.a4}, a6={self.a6}] over {self.spec}"
        )


def _check_invariants(spec, b2, b4, b6, b8, c4, c6, delta):
    """The identities that pin the sign conventions, and Delta != 0."""

    def n(k: int) -> ValuedElement:
        return ValuedElement.from_int(spec, k)

    if n(4) * b8 != b2 * b6 - b4 * b4:
        raise AssertionError("4*b8 != b2*b6 - b4^2: invariant formulas are wrong")
    if n(1728) * delta != c4 * c4 * c4 - c6 * c6:
        raise AssertionError("1728*Delta != c4^3 - c6^2: invariant formulas are wrong")
    if delta.is_zero():
        raise SingularCurve("discriminant vanishes")


def invariants(model: WeierstrassModel) -> StandardInvariants:
    """b2..b8, c4, c6, Delta, j of the model.

    They are computed from the coefficients only for a model built without
    carried invariants, once, when it is built; after that this is a read.
    """
    if model._invariants is not None:
        return model._invariants
    a1, a2, a3, a4, a6 = model.coefficients()
    spec = model.spec

    def n(k: int) -> ValuedElement:
        return ValuedElement.from_int(spec, k)

    b2 = a1 * a1 + n(4) * a2
    b4 = n(2) * a4 + a1 * a3
    b6 = a3 * a3 + n(4) * a6
    b8 = a1 * a1 * a6 + n(4) * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - n(24) * b4
    c6 = -(b2 * b2 * b2) + n(36) * b2 * b4 - n(216) * b6
    delta = -(b2 * b2) * b8 - n(8) * (b4 * b4 * b4) - n(27) * (b6 * b6) + n(9) * b2 * b4 * b6
    _check_invariants(spec, b2, b4, b6, b8, c4, c6, delta)
    j = (c4 * c4 * c4) / delta
    model._invariants = StandardInvariants(b2, b4, b6, b8, c4, c6, delta, j)
    return model._invariants


def transform(model: WeierstrassModel, u, r, s, t) -> WeierstrassModel:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.

    The new invariants come from the old ones: u^2 b2' = b2 + 12r,
    u^4 b4' = b4 + r b2 + 6r^2, u^6 b6' = b6 + 2r b4 + r^2 b2 + 4r^3,
    u^8 b8' = b8 + 3r b6 + 3r^2 b4 + r^3 b2 + 3r^4, u^4 c4' = c4,
    u^6 c6' = c6, u^12 Delta' = Delta and j' = j; s and t change none of
    them.  Division by u^k is skipped for u = 1 and is a gcd-free shift for
    u = pi.
    """
    spec = model.spec
    args = []
    for name, val in (("u", u), ("r", r), ("s", s), ("t", t)):
        if isinstance(val, int):
            val = ValuedElement.from_int(spec, val)
        if not isinstance(val, ValuedElement) or val.spec != spec:
            raise ValueError(f"{name} must be an element of {spec}")
        args.append(val)
    u, r, s, t = args
    if u.is_zero():
        raise ZeroScale("transform with u = 0")

    def n(k: int) -> ValuedElement:
        return ValuedElement.from_int(spec, k)

    if u == ValuedElement.one(spec):
        def scaled(x, k):
            return x
    elif u == ValuedElement.uniformizer(spec):
        def scaled(x, k):
            return x.shift_down(k)
    else:
        u2 = u * u
        u4 = u2 * u2
        u6 = u4 * u2
        powers = {1: u, 2: u2, 3: u2 * u, 4: u4, 6: u6, 8: u4 * u4, 12: u6 * u6}

        def scaled(x, k):
            return x / powers[k]

    a1, a2, a3, a4, a6 = model.coefficients()
    new_a1 = scaled(a1 + n(2) * s, 1)
    new_a2 = scaled(a2 - s * a1 + n(3) * r - s * s, 2)
    new_a3 = scaled(a3 + r * a1 + n(2) * t, 3)
    new_a4 = scaled(a4 - s * a3 + n(2) * r * a2 - (t + r * s) * a1 + n(3) * r * r - n(2) * s * t, 4)
    new_a6 = scaled(a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1, 6)

    inv = invariants(model)
    b2, b4, b6, b8 = inv.b2, inv.b4, inv.b6, inv.b8
    if not r.is_zero():
        b2, b4, b6, b8 = (
            b2 + n(12) * r,
            b4 + r * (b2 + n(6) * r),
            b6 + r * (n(2) * b4 + r * (b2 + n(4) * r)),
            b8 + r * (n(3) * b6 + r * (n(3) * b4 + r * (b2 + n(3) * r))),
        )
    carried = StandardInvariants(
        scaled(b2, 2), scaled(b4, 4), scaled(b6, 6), scaled(b8, 8),
        scaled(inv.c4, 4), scaled(inv.c6, 6), scaled(inv.delta, 12), inv.j,
    )
    return WeierstrassModel(spec, new_a1, new_a2, new_a3, new_a4, new_a6, carried=carried)
