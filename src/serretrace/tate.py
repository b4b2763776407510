"""Tate's algorithm over the valuation ring, residue field read geometrically.

The stepwise procedure classifies the special fiber of the minimal regular
model: check good reduction, move the singular point of the reduction to
the origin, split multiplicative from additive by b2, then walk the
additive ladder II / III / IV / I0* / Inu* / IV* / III* / II*, rescaling
by the uniformizer and starting over when every test fails (the model was
not minimal).  Minimality therefore never needs a separate criterion: a
model is minimal exactly when the walk terminates before the rescale.

Every branch decision on residue polynomials uses discriminants and
multiplicity patterns only.  Explicit roots are needed solely to
translate a *repeated* root to zero, and repeated roots are rational in
the coefficients in every characteristic: by gcd with the derivative away
from p = 2, 3, and by Frobenius (which is the identity on a prime field)
in the degenerate cases.  The ResidueRootNeeded guard is consequently
unreachable for the supported backends; it exists so that any future
backend violating this gets a loud error instead of a wrong answer.

Component counts are geometric (residue field treated as algebraically
closed): distinct residue roots are counted through the discriminant, and
their values are never required.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .localfield import INF, LocalFieldSpec, ValuedElement
from .polys import Poly
from .weierstrass import WeierstrassModel, invariants, transform


class ResidueRootNeeded(ArithmeticError):
    """A residue root outside the represented residue field was required."""


class ReductionClass(enum.Enum):
    GOOD = "good"
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


class KindFacts(NamedTuple):
    """What the Kodaira kind alone determines (the index nu aside)."""

    components: Optional[int]  # geometric component-group order; None: nu itself
    tame_order: Optional[int]  # eigenvalue order of tame monodromy; None: infinite
    wild: dict  # residue characteristic where wild inertia acts -> error term
    reduction: ReductionClass = ReductionClass.ADDITIVE

    @property
    def indexed(self) -> bool:
        """Inu and Inu*, the kinds with an index nu >= 1, are those whose tame
        monodromy has infinite order."""
        return self.tame_order is None


# One row per kind, in atlas order.  The wild characteristics are Saito's
# criterion specialized to elliptic curves: wild inertia acts nontrivially
# exactly for II, II*, III, III*, Inu* (nu >= 0) in residue characteristic
# 2 and for II, II*, IV, IV* in residue characteristic 3.  I0 is good
# reduction, and I0* is the nu = 0 member of the Inu* family.
KIND_FACTS = {
    "I0": KindFacts(1, 1, {}, ReductionClass.GOOD),
    "I": KindFacts(None, None, {}, ReductionClass.MULTIPLICATIVE),
    "II": KindFacts(1, 6, {2: 1, 3: 1}),
    "III": KindFacts(2, 4, {2: 0}),
    "IV": KindFacts(3, 3, {3: -1}),
    "I0*": KindFacts(4, 2, {2: -2}),
    "I*": KindFacts(4, None, {2: -2}),
    "IV*": KindFacts(3, 3, {3: -1}),
    "III*": KindFacts(2, 4, {2: 0}),
    "II*": KindFacts(1, 6, {2: 1, 3: 1}),
}


class _KodairaFields(NamedTuple):
    kind: str
    nu: Optional[int] = None


class KodairaType(_KodairaFields):
    """Kodaira-Neron reduction symbol."""

    __slots__ = ()

    def __new__(cls, kind: str, nu: Optional[int] = None):
        facts = KIND_FACTS.get(kind)
        if facts is None:
            raise ValueError(f"unknown Kodaira kind {kind!r}")
        if facts.indexed:
            if nu is None or nu < 1:
                raise ValueError(f"type {kind} needs nu >= 1")
        elif nu is not None:
            raise ValueError(f"type {kind} carries no index")
        return super().__new__(cls, kind, nu)

    @classmethod
    def I(cls, nu: int) -> "KodairaType":
        return cls("I", nu)

    @classmethod
    def I_star(cls, nu: int) -> "KodairaType":
        return cls("I*", nu)

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        s = text.strip()
        if s in KIND_FACTS and not KIND_FACTS[s].indexed:
            return cls(s)
        star = "*" if s.endswith("*") else ""
        digits = s[1 : len(s) - len(star)]
        if s.startswith("I") and digits.isdigit():
            nu = int(digits)
            return cls("I0" + star) if nu == 0 else cls("I" + star, nu)
        raise ValueError(f"cannot parse Kodaira symbol {text!r}")

    def __str__(self):
        # Inu prints as I<nu>, and Inu* as I<nu>*.
        return self.kind if self.nu is None else f"I{self.nu}{self.kind[1:]}"


class LocalInvariants(NamedTuple):
    """Output of the classification at one place."""

    type: KodairaType
    v_delta_min: int
    minimal_model: WeierstrassModel
    n_components: int
    reduction_class: ReductionClass
    p: int


def _frobenius_root(k, value):
    """p-th root in the residue field; the identity on a prime field."""
    if k.char == 0:
        raise ResidueRootNeeded("p-th root requested in characteristic zero")
    return k.pth_root(value)


def _cubic_multiplicity(k, a, b, c):
    """Root pattern of monic T^3 + a T^2 + b T + c over the closure of k.

    Returns ("distinct", None), ("double", r) or ("triple", r) with r the
    repeated root, which always lies in k itself.
    """
    n = k.normalize
    a, b, c = n(a), n(b), n(c)
    # Universal discriminant of the monic cubic; detects repeated roots in
    # every characteristic.
    disc = k.sub(
        k.add(
            k.mul(k.mul(n(18), k.mul(a, b)), c),
            k.sub(
                k.mul(k.mul(a, a), k.mul(b, b)),
                k.mul(n(4), k.mul(k.mul(a, a), k.mul(a, c))),
            ),
        ),
        k.add(k.mul(n(4), k.mul(b, k.mul(b, b))), k.mul(n(27), k.mul(c, c))),
    )
    if disc != k.zero:
        return "distinct", None
    if k.char == 2:
        # Repeated root forces c = ab; triple exactly when b = a^2.
        if b == k.mul(a, a):
            return "triple", a
        return "double", _frobenius_root(k, b)
    if k.char == 3:
        if a != k.zero:
            # P' = 2aT + b has the double root; a triple root would need a = 0.
            return "double", k.div(k.neg(b), k.mul(n(2), a))
        return "triple", _frobenius_root(k, k.neg(c))
    poly = Poly(k, [c, b, a, k.one])
    g = poly.gcd_monic(poly.derivative())
    if g.degree() == 1:
        return "double", k.neg(g.coeffs[0])
    return "triple", k.div(k.neg(a), n(3))


def _quadratic_multiplicity(k, lead, lin, const):
    """Root pattern of lead X^2 + lin X + const over the closure of k.

    ``lead`` must be a unit.  Returns ("distinct", None) or ("double", r).
    """
    n = k.normalize
    lead, lin, const = n(lead), n(lin), n(const)
    disc = k.sub(k.mul(lin, lin), k.mul(n(4), k.mul(lead, const)))
    if disc != k.zero:
        return "distinct", None
    if k.char == 2:
        return "double", _frobenius_root(k, k.div(const, lead))
    return "double", k.div(k.neg(lin), k.mul(n(2), lead))


def _lift(spec: LocalFieldSpec, value) -> ValuedElement:
    return ValuedElement.lift_residue(spec, value)


def _move_singular_point_to_origin(W: WeierstrassModel) -> WeierstrassModel:
    """Translate so the unique singular point of the reduction is (0, 0)."""
    spec = W.spec
    k = spec.residue_field
    inv = invariants(W)
    if k.char == 2:
        a1r = W.a1.reduce()
        if a1r != k.zero:
            x0 = k.div(W.a3.reduce(), a1r)
            y0 = k.div(k.add(k.mul(x0, x0), W.a4.reduce()), a1r)
        else:
            x0 = _frobenius_root(k, W.a4.reduce())
            rhs = k.add(
                k.add(k.mul(k.mul(x0, x0), x0), k.mul(W.a2.reduce(), k.mul(x0, x0))),
                k.add(k.mul(W.a4.reduce(), x0), W.a6.reduce()),
            )
            y0 = _frobenius_root(k, rhs)
    else:
        # Singular x is the repeated root of 4x^3 + b2 x^2 + 2b4 x + b6.
        quarter = k.invert(k.normalize(4))
        half = k.invert(k.normalize(2))
        a = k.mul(inv.b2.reduce(), quarter)
        b = k.mul(inv.b4.reduce(), half)
        c = k.mul(inv.b6.reduce(), quarter)
        pattern, root = _cubic_multiplicity(k, a, b, c)
        if pattern == "distinct":
            raise AssertionError("singular reduction without repeated root")
        x0 = root
        y0 = k.neg(
            k.mul(k.add(k.mul(W.a1.reduce(), x0), W.a3.reduce()), half)
        )
    if x0 == k.zero and y0 == k.zero:
        return W
    return transform(W, 1, _lift(spec, x0), 0, _lift(spec, y0))


def _require(element: ValuedElement, minimum: int, what: str):
    v = element.valuation()
    if not v >= minimum:
        raise AssertionError(f"expected v({what}) >= {minimum}, got {v}")


def _normalize_for_star(W: WeierstrassModel) -> WeierstrassModel:
    """Reach v(a1), v(a2) >= 1, v(a3), v(a4) >= 2, v(a6) >= 3."""
    spec = W.spec
    k = spec.residue_field
    pi = ValuedElement.uniformizer(spec)
    if k.char == 2:
        s0 = _frobenius_root(k, W.a2.reduce())
    else:
        s0 = k.neg(k.mul(W.a1.reduce(), k.invert(k.normalize(2))))
    if s0 != k.zero:
        W = transform(W, 1, 0, _lift(spec, s0), 0)
    _require(W.a1, 1, "a1")
    _require(W.a2, 1, "a2")
    if k.char == 2:
        _require(W.a3, 2, "a3")
        tau = _frobenius_root(k, W.a6.residue_at(2))
    else:
        tau = k.neg(k.mul(W.a3.residue_at(1), k.invert(k.normalize(2))))
    if tau != k.zero:
        W = transform(W, 1, 0, 0, pi * _lift(spec, tau))
    _require(W.a3, 2, "a3")
    _require(W.a4, 2, "a4")
    _require(W.a6, 3, "a6")
    return W


def _pi_power(spec: LocalFieldSpec, e: int) -> ValuedElement:
    return ValuedElement.one(spec).shift_down(-e)


def _istar_subloop(W: WeierstrassModel, v_delta: int):
    """Determine nu for type Inu*, nu >= 1.

    Entered with the residue cubic having a double root at zero, so
    v(a2) = 1 and v(a3) >= 2, v(a4) >= 3, v(a6) >= 4.  Alternating
    quadratics in y and x decide whether the chain of exceptional curves
    stops; their repeated roots drive further translations.  ``v_delta``
    is v(Delta) of W: nu < v(Delta), so m never passes it.
    """
    spec = W.spec
    k = spec.residue_field
    for m in range(1, v_delta + 1):
        _require(W.a3, m + 1, "a3")
        _require(W.a6, 2 * m + 2, "a6")
        pattern, root = _quadratic_multiplicity(
            k, k.one, W.a3.residue_at(m + 1), k.neg(W.a6.residue_at(2 * m + 2))
        )
        if pattern == "distinct":
            return 2 * m - 1, W
        if root != k.zero:
            W = transform(W, 1, 0, 0, _pi_power(spec, m + 1) * _lift(spec, root))
        a21 = W.a2.residue_at(1)
        if a21 == k.zero:
            raise AssertionError("Inu* subloop lost the double-root slope")
        _require(W.a4, m + 2, "a4")
        _require(W.a6, 2 * m + 3, "a6")
        pattern, root = _quadratic_multiplicity(
            k, a21, W.a4.residue_at(m + 2), W.a6.residue_at(2 * m + 3)
        )
        if pattern == "distinct":
            return 2 * m, W
        if root != k.zero:
            W = transform(W, 1, _pi_power(spec, m + 1) * _lift(spec, root), 0, 0)
    raise AssertionError(f"Inu* subloop passed m = v(Delta) = {v_delta}")


def tate_algorithm(model: WeierstrassModel) -> LocalInvariants:
    """Kodaira type, minimal model and local invariants of the curve."""
    spec = model.spec
    k = spec.residue_field
    p = spec.residue_char
    pi = ValuedElement.uniformizer(spec)

    def result(W, type_):
        vd = invariants(W).delta.valuation()
        assert vd is not INF
        return LocalInvariants(
            type=type_,
            v_delta_min=vd,
            minimal_model=W,
            n_components=n_components_for(type_),
            reduction_class=reduction_class_for(type_),
            p=p,
        )

    W = model
    inv = invariants(W)
    # A rescale lowers v(Delta) by 12, and v(Delta) >= 0 on an integral
    # model, so a correct walk rescales at most v(Delta) // 12 times.
    rescales_left = inv.delta.valuation() // 12
    while True:
        v_delta = inv.delta.valuation()
        if v_delta == 0:
            return result(W, KodairaType("I0"))

        W = _move_singular_point_to_origin(W)
        inv = invariants(W)
        for name, a, minimum in (("a3", W.a3, 1), ("a4", W.a4, 1), ("a6", W.a6, 1)):
            _require(a, minimum, name)

        if inv.b2.valuation() == 0:
            # Nodal reduction: the geometric component group is cyclic of
            # order v(Delta) regardless of whether the node is split.
            return result(W, KodairaType.I(v_delta))

        if W.a6.valuation() < 2:
            return result(W, KodairaType("II"))
        if inv.b8.valuation() < 3:
            return result(W, KodairaType("III"))
        if inv.b6.valuation() < 3:
            return result(W, KodairaType("IV"))

        W = _normalize_for_star(W)
        pattern, root = _cubic_multiplicity(
            k, W.a2.residue_at(1), W.a4.residue_at(2), W.a6.residue_at(3)
        )
        if pattern == "distinct":
            return result(W, KodairaType("I0*"))

        if root != k.zero:
            W = transform(W, 1, pi * _lift(spec, root), 0, 0)

        if pattern == "double":
            nu, W = _istar_subloop(W, v_delta)
            return result(W, KodairaType.I_star(nu))

        # Triple root: v(a2) >= 2, v(a4) >= 3, v(a6) >= 4 from here on.
        _require(W.a2, 2, "a2")
        _require(W.a4, 3, "a4")
        _require(W.a6, 4, "a6")
        patq, rootq = _quadratic_multiplicity(
            k, k.one, W.a3.residue_at(2), k.neg(W.a6.residue_at(4))
        )
        if patq == "distinct":
            return result(W, KodairaType("IV*"))
        if rootq != k.zero:
            W = transform(W, 1, 0, 0, _pi_power(spec, 2) * _lift(spec, rootq))
        _require(W.a3, 3, "a3")
        _require(W.a6, 5, "a6")

        if W.a4.valuation() < 4:
            return result(W, KodairaType("III*"))
        if W.a6.valuation() < 6:
            return result(W, KodairaType("II*"))

        # Every exponent cleared: the model was not minimal.  Rescale and
        # run again with v(Delta) lowered by 12.
        _require(W.a1, 1, "a1")
        if not rescales_left:
            raise AssertionError("rescaled more than v(Delta) // 12 times")
        rescales_left -= 1
        W = transform(W, pi, 0, 0, 0)
        inv = invariants(W)


def is_cohomologically_tame_for(type_: KodairaType, p: int) -> bool:
    """Saito's criterion: p is not a wild characteristic of the kind."""
    return p not in KIND_FACTS[type_.kind].wild


def error_term_for(type_: KodairaType, p: int) -> int:
    """Error term of the trace formula, per type and residue characteristic."""
    return KIND_FACTS[type_.kind].wild.get(p, 0)


def n_components_for(type_: KodairaType) -> int:
    """Geometric component count of the Neron special fiber."""
    components = KIND_FACTS[type_.kind].components
    return type_.nu if components is None else components


def reduction_class_for(type_: KodairaType) -> ReductionClass:
    return KIND_FACTS[type_.kind].reduction
