"""Exact elements of a complete discretely valued field.

Two backends share one interface:

* ``padic:p`` -- K = Q_p, elements held as exact rationals, valuation is
  the p-adic order, the residue field is F_p;
* ``laurent:Q`` / ``laurent:Fp`` -- K = k((t)) for k = Q or F_p, elements
  held as rational functions in t, valuation is the t-adic order.

Elements are global representatives (rationals / rational functions), so
every operation is exact and no series truncation ever happens.  Residue
reduction returns a bare element of the residue field (for Q an int when
integral and a Fraction otherwise, an int for F_p); residue arithmetic goes
through ``spec.residue_field``.  The padic backend holds its elements as
Fractions.

Element literals (``parse_element``) are read by the evaluator of ``expr``
and evaluated fraction-free: every subexpression is an unreduced numerator
and denominator in the coefficient ring, Polys over k for laurent and ints
for padic.  The literal is reduced once at the end, and the base of a power
once before the power limits read it; either reduction takes a gcd only
when the denominator is not constant.
A literal is refused with ``ElementSyntaxError`` before any product whose
numerator or denominator would pass t-degree ``MAX_POWER_DEGREE``, before a
power whose estimated cost passes ``MAX_POWER_COST``, at an integer of more
than ``MAX_INT_DIGITS`` digits, and when its value holds such an integer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .expr import INT_DIGITS_BOUND, MAX_EXPONENT, MAX_INT_DIGITS, _power, evaluate
from .polys import QQ, Poly, PrimeField, RationalFunction


class NegativeValuation(ValueError):
    """Reduction mod the maximal ideal asked of an element outside R."""


class UnsupportedBackend(ValueError):
    """Operation not available for this field backend."""


class _Infinity:
    """Valuation of zero; compares above every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INF

    def __gt__(self, other):
        return other is not INF

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INF

    def __hash__(self):
        return hash("valuation-infinity")

    def __add__(self, other):
        return INF

    __radd__ = __add__

    def __mul__(self, other):
        return INF

    __rmul__ = __mul__

    def __repr__(self):
        return "inf"


INF = _Infinity()

_FIELD_SPEC_RE = re.compile(r"^(padic:(\d+)|laurent:(Q|F(\d+)))$")


class LocalFieldSpec(NamedTuple):
    """Which discretely valued field we are working over.

    ``kind`` is "padic" or "laurent"; ``residue_field`` is the exact-field
    object used for residue arithmetic (F_p for padic:p and laurent:Fp,
    Q for laurent:Q).
    """

    kind: str
    residue_field: object

    @classmethod
    def padic(cls, p: int) -> "LocalFieldSpec":
        return cls("padic", PrimeField(p))

    @classmethod
    def laurent_q(cls) -> "LocalFieldSpec":
        return cls("laurent", QQ)

    @classmethod
    def laurent_fp(cls, p: int) -> "LocalFieldSpec":
        return cls("laurent", PrimeField(p))

    @classmethod
    def parse(cls, text: str) -> "LocalFieldSpec":
        m = _FIELD_SPEC_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad field spec {text!r}; use padic:<p>, laurent:Q or laurent:F<p>")
        if m.group(2) is not None:
            return cls.padic(int(m.group(2)))
        if m.group(3) == "Q":
            return cls.laurent_q()
        return cls.laurent_fp(int(m.group(4)))

    @property
    def residue_char(self) -> int:
        return self.residue_field.char

    def __str__(self):
        if self.kind == "padic":
            return f"padic:{self.residue_field.p}"
        if self.residue_field is QQ or self.residue_field == QQ:
            return "laurent:Q"
        return f"laurent:F{self.residue_field.p}"


class ValuedElement:
    """An exact element of K, carrying its field spec."""

    __slots__ = ("spec", "rep")

    def __init__(self, spec: LocalFieldSpec, rep):
        if spec.kind == "padic":
            if not isinstance(rep, Fraction):
                rep = Fraction(rep)
        else:
            if not isinstance(rep, RationalFunction):
                raise TypeError("laurent elements need a RationalFunction representative")
        self.spec = spec
        self.rep = rep

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, spec: LocalFieldSpec, n: int) -> "ValuedElement":
        return cls.from_fraction(spec, Fraction(n))

    @classmethod
    def from_fraction(cls, spec: LocalFieldSpec, q: Fraction) -> "ValuedElement":
        if spec.kind == "padic":
            return cls(spec, q)
        k = spec.residue_field
        num = Poly.constant(k, k.from_fraction(Fraction(q.numerator)))
        den = Poly.constant(k, k.from_fraction(Fraction(q.denominator)))
        return cls(spec, RationalFunction(num, den))

    @classmethod
    def zero(cls, spec: LocalFieldSpec) -> "ValuedElement":
        return cls.from_int(spec, 0)

    @classmethod
    def one(cls, spec: LocalFieldSpec) -> "ValuedElement":
        return cls.from_int(spec, 1)

    @classmethod
    def uniformizer(cls, spec: LocalFieldSpec) -> "ValuedElement":
        if spec.kind == "padic":
            return cls(spec, Fraction(spec.residue_field.p))
        k = spec.residue_field
        return cls(spec, RationalFunction.from_poly(Poly.gen(k)))

    @classmethod
    def lift_residue(cls, spec: LocalFieldSpec, value) -> "ValuedElement":
        """Canonical lift of a residue-field element into R."""
        if spec.residue_field.char == 0:
            return cls.from_fraction(spec, Fraction(value))
        if spec.kind == "padic":
            return cls(spec, Fraction(int(value) % spec.residue_field.p))
        k = spec.residue_field
        return cls(spec, RationalFunction.constant(k, int(value)))

    # ---- ring structure ------------------------------------------------

    def _check(self, other: "ValuedElement"):
        if self.spec != other.spec:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return ValuedElement(self.spec, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return ValuedElement(self.spec, self.rep - other.rep)

    def __neg__(self):
        return ValuedElement(self.spec, -self.rep)

    def __mul__(self, other):
        self._check(other)
        return ValuedElement(self.spec, self.rep * other.rep)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in K")
        return ValuedElement(self.spec, self.rep / other.rep)

    def __eq__(self, other):
        return (
            isinstance(other, ValuedElement)
            and self.spec == other.spec
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.spec, self.rep))

    def is_zero(self) -> bool:
        if self.spec.kind == "padic":
            return self.rep == 0
        return self.rep.is_zero()

    # ---- valuation and reduction ----------------------------------------

    def valuation(self):
        """v(self); INF for zero."""
        if self.spec.kind == "padic":
            if self.rep == 0:
                return INF
            p = self.spec.residue_field.p
            return _int_order(self.rep.numerator, p) - _int_order(self.rep.denominator, p)
        order = self.rep.t_order()
        return INF if order is None else order

    def is_integral(self) -> bool:
        return self.valuation() >= 0

    def reduce(self):
        """Image in the residue field k; requires v >= 0."""
        v = self.valuation()
        if v is INF:
            return self.spec.residue_field.zero
        if v < 0:
            raise NegativeValuation(f"cannot reduce {self} (valuation {v})")
        if v > 0:
            return self.spec.residue_field.zero
        if self.spec.kind == "padic":
            return self.spec.residue_field.from_fraction(self.rep)
        return self.rep.unit_part_at_origin()

    def shift_down(self, k: int) -> "ValuedElement":
        """Exact division by pi^k (k may be negative)."""
        if k == 0:
            return self
        if self.spec.kind == "padic":
            p = self.spec.residue_field.p
            scale = Fraction(p) ** k
            return ValuedElement(self.spec, self.rep / scale)
        # Cancel the powers of t that the part being divided carries and put
        # the rest on the other part.  t then divides at most one of them,
        # so the pair stays coprime, and a shift keeps den monic.
        num, den = self.rep.num, self.rep.den
        if num.is_zero():
            return self
        if k > 0:
            m = min(num.t_order(), k)
            num, den = num.shift(-m), den.shift(k - m)
        else:
            m = min(den.t_order(), -k)
            num, den = num.shift(-k - m), den.shift(-m)
        return ValuedElement(self.spec, RationalFunction._reduced(num, den))

    def residue_at(self, k: int):
        """Residue of self / pi^k; requires v >= k."""
        v = self.valuation()
        if v < k:
            raise NegativeValuation(f"valuation {v} < {k} in residue extraction")
        return self.shift_down(k).reduce()

    # ---- base change ------------------------------------------------------

    def base_change_substitute(self, d: int) -> "ValuedElement":
        """Totally ramified degree-d base change t -> t^d (laurent only)."""
        if d < 1:
            raise ValueError("base change degree must be >= 1")
        if self.spec.kind != "laurent":
            raise UnsupportedBackend("t -> t^d substitution needs a laurent backend")
        return ValuedElement(self.spec, self.rep.compose_power(d))

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"ValuedElement({self.spec}, {self.rep})"


def _int_order(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("order of zero")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---- element literal parsing -----------------------------------------------

class ElementSyntaxError(ValueError):
    """Malformed element literal."""


# Limits on a literal, each checked before the arithmetic it guards, next to
# the exponent and digit limits of ``expr``.  Squaring reaches a huge power
# in a few steps, and the unreduced parts of a literal add their degrees
# under every product.
MAX_POWER_DEGREE = 10_000  # on |e| times the t-degree of the base, and on any part's t-degree
MAX_POWER_BITS = 1 << 20  # on |e| times the bit length of the base's rationals
MAX_POWER_COST = 2_000_000  # on _power_cost of each part of a base with two or more terms


def _rationals(x: ValuedElement):
    """The rationals of x that arithmetic can make large: its value over
    padic, its nonzero coefficients over laurent:Q, and none over F_p, whose
    coefficients stay below p."""
    if x.spec.kind == "padic":
        return (x.rep,)
    if x.spec.residue_char == 0:
        return tuple(filter(None, x.rep.num.coeffs + x.rep.den.coeffs))
    return ()


def _power_cost(part: Poly, e: int, p: int) -> int:
    """Estimated work of ``_power(part, e)`` in units of one product of small
    integer coefficients (0.1 to 0.5 microseconds with Python 3.11 on a
    shared 2-core x86-64 machine); 0 for a monomial.

    The estimate follows the squaring chain of ``_power``: a product of
    x^i and x^j costs the product of their term bounds, times
    1 + (bits of x^i)(bits of x^j) / 2^18 for the coefficient size, and
    32 times as much when x has a non-integral coefficient (a Fraction
    product takes gcds).  x^k has at most k*deg + 1 terms, and at most
    C(k+n-1, n-1) for x of n terms.  Over F_p, x^k is the product of
    x(t^(p^i))^(k_i) over the base-p digits k_i of k, so that bound holds
    digit by digit and multiplies, and the coefficients stay below p.  Over
    Q, x^k has height at most (n*H)^k for x of height H.
    """
    coeffs = tuple(filter(None, part.coeffs))
    n, deg = len(coeffs), part.degree()
    if n < 2:
        return 0
    if p:
        growth, weight = 0, 1
    else:
        height = max(max(abs(q.numerator), q.denominator) for q in coeffs)
        growth = (n * height).bit_length()
        weight = 1 if all(type(q) is int for q in coeffs) else 32

    def terms(k):
        bound, rest = 1, k
        while rest:
            rest, digit = divmod(rest, p) if p else (0, rest)
            bound *= min(digit * deg + 1, comb(digit + n - 1, n - 1))
        return min(bound, k * deg + 1)

    def product(i, j):
        return terms(i) * terms(j) * (1 + (i * growth * j * growth >> 18)) * weight

    cost, out, x = 0, 0, 1
    while e:
        if e & 1:
            cost += product(out, x)
            out += x
        e >>= 1
        if e:
            cost += product(x, x)
            x += x
    return cost


def _check_power_size(base: ValuedElement, exp: int):
    """Raise ElementSyntaxError when base^exp would pass a literal limit."""
    e = abs(exp)
    if e > MAX_EXPONENT:
        raise ElementSyntaxError(f"exponent {exp} is beyond the limit {MAX_EXPONENT}")
    parts = () if base.spec.kind == "padic" else (base.rep.num, base.rep.den)
    degree = max((part.degree() for part in parts), default=0)
    if e * degree > MAX_POWER_DEGREE:
        raise ElementSyntaxError(
            f"power of degree {e * degree} is beyond the limit {MAX_POWER_DEGREE}"
        )
    bits = max(
        (max(q.numerator.bit_length(), q.denominator.bit_length()) for q in _rationals(base)),
        default=0,
    )
    if e * bits > MAX_POWER_BITS:
        raise ElementSyntaxError(
            f"power of {e * bits} coefficient bits is beyond the limit {MAX_POWER_BITS}"
        )
    p = base.spec.residue_char
    cost = sum(_power_cost(part, e, p) for part in parts)
    if cost > MAX_POWER_COST:
        raise ElementSyntaxError(
            f"power of estimated cost {cost} is beyond the limit {MAX_POWER_COST}"
        )


def _check_value_digits(x: ValuedElement):
    """Raise ElementSyntaxError when x holds an integer of more than MAX_INT_DIGITS digits."""
    bound = INT_DIGITS_BOUND
    if any(abs(q.numerator) >= bound or q.denominator >= bound for q in _rationals(x)):
        raise ElementSyntaxError(
            f"value with an integer of more than {MAX_INT_DIGITS} digits is beyond the "
            f"limit {MAX_INT_DIGITS}"
        )


class _ElementRing:
    """The arithmetic of element literals for ``expr.evaluate``, on unreduced
    pairs (num, den) in the coefficient ring.

    Sums add numerators over an equal denominator and cross-multiply
    otherwise, products multiply both parts, quotients cross-multiply, and
    none of them takes a gcd.  A power raises the reduced base's numerator
    and denominator separately, since powers of a coprime pair stay coprime.
    """

    error = ElementSyntaxError
    vocabulary = frozenset("t()+-*/^")
    functions = frozenset()
    signed_exponents = True

    def __init__(self, spec: LocalFieldSpec):
        self.spec = spec
        self.laurent = spec.kind == "laurent"
        if self.laurent:
            k = spec.residue_field
            self.zero, self.one = Poly._trimmed(k, []), Poly._trimmed(k, [k.one])
        else:
            self.zero, self.one = 0, 1

    def reduce(self, num, den) -> ValuedElement:
        """The element num/den, with a gcd only when den is not constant."""
        spec = self.spec
        if not self.laurent:
            return ValuedElement(spec, Fraction(num, den))
        if den.degree() > 0:
            return ValuedElement(spec, RationalFunction(num, den))
        k = spec.residue_field
        c = den.coeffs[0]
        if c != k.one:
            num = num.scale(k.invert(c))
        return ValuedElement(spec, RationalFunction._reduced(num, self.one))

    def product(self, a, b):
        """a * b in the coefficient ring, refused past MAX_POWER_DEGREE."""
        if a is self.one:
            return b
        if b is self.one:
            return a
        if self.laurent and a.degree() + b.degree() > MAX_POWER_DEGREE:
            raise ElementSyntaxError(
                f"literal of degree {a.degree() + b.degree()} is beyond the limit "
                f"{MAX_POWER_DEGREE}"
            )
        return a * b

    def integer(self, n: int):
        if self.laurent:
            return Poly.constant(self.spec.residue_field, n), self.one
        return n, self.one

    def name(self, name: str):
        if not self.laurent:
            raise ElementSyntaxError("'t' only makes sense for laurent backends")
        return Poly.gen(self.spec.residue_field), self.one

    def neg(self, x):
        return -x[0], x[1]

    def add(self, x, y):
        (num, den), (c, d) = x, y
        if den != d:
            num, c, den = self.product(num, d), self.product(c, den), self.product(den, d)
        return num + c, den

    def sub(self, x, y):
        return self.add(x, (-y[0], y[1]))

    def mul(self, x, y):
        return self.product(x[0], y[0]), self.product(x[1], y[1])

    def div(self, x, y):
        if y[0] == self.zero:
            raise ZeroDivisionError("division by zero in K")
        return self.product(x[0], y[1]), self.product(x[1], y[0])

    def power(self, base, exp: int):
        reduced = self.reduce(*base)
        _check_power_size(reduced, exp)
        rep = reduced.rep
        num, den = (rep.num, rep.den) if self.laurent else (rep.numerator, rep.denominator)
        if exp < 0:
            if num == self.zero:
                raise ZeroDivisionError("division by zero in K")
            num, den = den, num
        e = abs(exp)
        return _power(num, e, self.one), _power(den, e, self.one)

    def finish(self, x) -> ValuedElement:
        value = self.reduce(*x)
        _check_value_digits(value)
        return value


def parse_element(spec: LocalFieldSpec, text: str) -> ValuedElement:
    """Parse an element literal like ``3/4`` or ``(t^2+t^5)/(1+t)``."""
    return evaluate(_ElementRing(spec), text)
