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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class LocalFieldSpec:
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

_TOKEN_RE = re.compile(r"\s*(\d+|t|\*\*|[()+\-*/^])")


class ElementSyntaxError(ValueError):
    """Malformed element literal."""


# Limits on a literal power base^e.  Squaring reaches a huge power in a few
# steps, so a request for one is refused before any arithmetic is done.
MAX_EXPONENT = 10_000  # on |e|
MAX_POWER_DEGREE = 10_000  # on |e| times the t-degree of the base
MAX_POWER_BITS = 1 << 20  # on |e| times the bit length of the base's rationals


def _check_power_size(base: ValuedElement, exp: int):
    """Raise ElementSyntaxError when base^exp would pass a literal limit."""
    e = abs(exp)
    if e > MAX_EXPONENT:
        raise ElementSyntaxError(f"exponent {exp} is beyond the limit {MAX_EXPONENT}")
    if base.spec.kind == "padic":
        degree, rationals = 0, (base.rep,)
    else:
        num, den = base.rep.num, base.rep.den
        degree = max(num.degree(), den.degree())
        # Coefficients in F_p stay below p under any power.
        rationals = num.coeffs + den.coeffs if base.spec.residue_char == 0 else ()
    if e * degree > MAX_POWER_DEGREE:
        raise ElementSyntaxError(
            f"power of degree {e * degree} is beyond the limit {MAX_POWER_DEGREE}"
        )
    bits = max(
        (max(q.numerator.bit_length(), q.denominator.bit_length()) for q in rationals),
        default=0,
    )
    if e * bits > MAX_POWER_BITS:
        raise ElementSyntaxError(
            f"power of {e * bits} coefficient bits is beyond the limit {MAX_POWER_BITS}"
        )


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ElementSyntaxError(f"bad character at {text[pos:]!r}")
        tok = m.group(1)
        tokens.append("^" if tok == "**" else tok)
        pos = m.end()
    return tokens


class _ElementParser:
    """Recursive-descent parser for +, -, *, /, ^ over integers and t."""

    def __init__(self, spec: LocalFieldSpec, tokens):
        self.spec = spec
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ElementSyntaxError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> ValuedElement:
        value = self.expr()
        if self.peek() is not None:
            raise ElementSyntaxError(f"trailing input {self.tokens[self.pos:]!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else -value

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        exp = self.exponent()
        _check_power_size(base, exp)
        one = ValuedElement.one(self.spec)
        out, square, n = one, base, abs(exp)
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out if exp >= 0 else one / out

    def exponent(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ElementSyntaxError("exponent must be an integer")
        return sign * int(tok)

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ElementSyntaxError("unexpected end of input")
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok == "t":
            if self.spec.kind != "laurent":
                raise ElementSyntaxError("'t' only makes sense for laurent backends")
            return ValuedElement.uniformizer(self.spec)
        if tok.isdigit():
            return ValuedElement.from_int(self.spec, int(tok))
        raise ElementSyntaxError(f"unexpected token {tok!r}")


def parse_element(spec: LocalFieldSpec, text: str) -> ValuedElement:
    """Parse an element literal like ``3/4`` or ``(t^2+t^5)/(1+t)``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ElementSyntaxError("empty element literal")
    return _ElementParser(spec, tokens).parse()
