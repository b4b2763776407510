"""Symbolic Grothendieck ring of varieties on generator symbols.

The ring is free on the generators: the class of a point (the unit), the
Lefschetz class L of the affine line, projective spaces P^n, the torus Gm,
and smooth proper connected curves of genus g.  Scissor relations between
generators (such as [P^1] = L + 1) are *not* imposed on canonical forms;
they hold after realization and are checked by tests.  Geometry enters
only through the realizations:

* the Poincare polynomial, a ring morphism into Z[T] with the alternating
  sign convention P = sum (-1)^i beta_i T^i, so that P(point) = 1,
  P(L) = T^2, P(curve of genus g) = 1 - 2g T + T^2, and P(1) is the Euler
  characteristic;
* point counting over F_q on the counting generators (no count is carried
  by positive-genus curve symbols);
* the sound-but-incomplete comparison in the quotient by (L - 1): residues
  of Poincare polynomials mod T^2 - 1 certify that two classes differ,
  never that they agree.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

from .expr import INT_DIGITS_BOUND, MAX_EXPONENT, MAX_INT_DIGITS, _power, evaluate


def _signed_sum(terms) -> str:
    """Print (coefficient, monomial) pairs as ``3 + 2*T - T^2``; the empty
    monomial is the constant term, and zero coefficients are left out."""
    out = ""
    for coeff, mono in terms:
        if coeff == 0:
            continue
        if not mono:
            term = str(coeff)
        elif coeff == 1:
            term = mono
        elif coeff == -1:
            term = f"-{mono}"
        else:
            term = f"{coeff}*{mono}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out or "0"


class IntPoly:
    """Polynomial with integer coefficients (ascending, no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly([c * a for a in self.coeffs])

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def mod_t2_minus_1(self) -> "IntPoly":
        """Residue modulo T^2 - 1 (fold T^2 -> 1)."""
        even = sum(self.coeffs[0::2])
        odd = sum(self.coeffs[1::2])
        return IntPoly((even, odd))

    def __str__(self, var: str = "T"):
        powers = ["", var] + [f"{var}^{i}" for i in range(2, len(self.coeffs))]
        return _signed_sum(zip(self.coeffs, powers))

    def __repr__(self):
        return f"IntPoly({self})"


# Generator atoms.  The class of a point is the ring unit and corresponds
# to the empty monomial, so it never appears as an atom.
LEFSCHETZ = ("L",)
GM = ("Gm",)


def proj_atom(n: int):
    if n < 1:
        raise ValueError("projective space generator needs n >= 1")
    return ("P", n)


def curve_atom(g: int):
    if g < 0:
        raise ValueError("curve genus must be >= 0")
    return ("C", g)


def _atom_str(atom) -> str:
    if atom == LEFSCHETZ:
        return "L"
    if atom == GM:
        return "Gm"
    if atom[0] == "P":
        return f"Pn({atom[1]})"
    return f"C({atom[1]})"


class GrothElement:
    """Formal integer combination of monomials in the generator symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # Monomials arrive sorted: built of at most one atom, or sorted by __mul__.
        self.terms = {mono: int(coeff) for mono, coeff in (terms or {}).items() if coeff}

    # ---- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_int(cls, n: int):
        return cls({(): n})

    @classmethod
    def point(cls):
        return cls.from_int(1)

    @classmethod
    def lefschetz(cls):
        return cls({(LEFSCHETZ,): 1})

    @classmethod
    def proj_space(cls, n: int):
        return cls({(proj_atom(n),): 1})

    @classmethod
    def gm(cls):
        return cls({(GM,): 1})

    @classmethod
    def curve(cls, g: int):
        return cls({(curve_atom(g),): 1})

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, GrothElement):
            return other
        if isinstance(other, int):
            return cls.from_int(other)
        return NotImplemented

    # ---- ring operations ------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return GrothElement(out)

    __radd__ = __add__

    def __neg__(self):
        return GrothElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return GrothElement(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        return _signed_sum(
            (self.terms[mono], "*".join(_atom_str(atom) for atom in mono))
            for mono in sorted(self.terms)
        )

    def __repr__(self):
        return f"GrothElement({self})"


def _atom_poincare(atom) -> IntPoly:
    if atom == LEFSCHETZ:
        return IntPoly((0, 0, 1))
    if atom == GM:
        return IntPoly((-1, 0, 1))
    if atom[0] == "P":
        n = atom[1]
        coeffs = [0] * (2 * n + 1)
        coeffs[0::2] = [1] * (n + 1)
        return IntPoly(coeffs)
    g = atom[1]
    return IntPoly((1, -2 * g, 1))


def _realize(a: GrothElement, image) -> IntPoly:
    """The ring morphism into Z[T] given on generator atoms by ``image``."""
    total = IntPoly()
    for mono, coeff in a.terms.items():
        prod = IntPoly((1,))
        for atom in mono:
            prod = prod * image(atom)
        total = total + prod.scale(coeff)
    return total


def poincare(a: GrothElement) -> IntPoly:
    """Poincare-polynomial realization into Z[T].

    Determined on generators (point -> 1, L -> T^2, P^n -> 1+T^2+...+T^2n,
    Gm -> T^2 - 1, genus-g curve -> 1 - 2g T + T^2) and extended as a ring
    morphism.
    """
    return _realize(a, _atom_poincare)


def euler(a: GrothElement) -> int:
    """Topological Euler characteristic: the Poincare polynomial at T = 1."""
    return poincare(a).evaluate(1)


class QuotientVerdict(enum.Enum):
    """Outcome of comparison in the quotient ring modulo (L - 1)."""

    DISTINCT = "distinct"
    INDISTINGUISHABLE = "indistinguishable"


class QuotientComparison(NamedTuple):
    verdict: QuotientVerdict
    residue: IntPoly  # P(a - b) mod T^2 - 1


def eq_mod_L_minus_1(a: GrothElement, b: GrothElement) -> QuotientComparison:
    """Sound, incomplete comparison of classes modulo (L - 1).

    A nonzero residue of P(a - b) modulo T^2 - 1 certifies that the images
    of a and b in the quotient ring differ.  A zero residue proves
    nothing: the test is one-sided by design.
    """
    a = GrothElement._coerce(a)
    b = GrothElement._coerce(b)
    residue = poincare(a - b).mod_t2_minus_1()
    if residue.is_zero():
        return QuotientComparison(QuotientVerdict.INDISTINGUISHABLE, residue)
    return QuotientComparison(QuotientVerdict.DISTINCT, residue)


class CountUnavailable(ValueError):
    """Point counting asked of a generator that carries no count."""


def _atom_count(atom) -> IntPoly:
    if atom == LEFSCHETZ:
        return IntPoly((0, 1))
    if atom == GM:
        return IntPoly((-1, 1))
    if atom[0] == "P":
        return IntPoly((1,) * (atom[1] + 1))
    raise CountUnavailable(f"no point count for {_atom_str(atom)}")


def point_count_polynomial(a: GrothElement) -> IntPoly:
    """Number of F_q-points as a polynomial in q, when defined.

    Counts exist for the point, L, P^n and Gm generators; a genus-g curve
    symbol carries no count and raises.
    """
    return _realize(a, _atom_count)


# ---- expression parsing for the CLI ----------------------------------------


class GrothSyntaxError(ValueError):
    """Malformed Grothendieck-ring expression, or one beyond a size limit."""


# Limits on an expression, each checked before the arithmetic it guards.
# The realizations multiply out every monomial, at a cost that grows with
# its Poincare degree and with the number of terms.
MAX_ARGUMENT = 50  # on n in Pn(n) and g in C(g); Pn(n) has Poincare degree 2n
MAX_DEGREE = 100  # on the Poincare degree of a monomial of a product
MAX_TERM_PAIRS = 10_000  # on |a|*|b|, the term products of a product a*b


def _degree(a: GrothElement) -> int:
    """The largest Poincare degree of a monomial of a."""
    return max(
        (sum(2 * atom[1] if atom[0] == "P" else 2 for atom in mono) for mono in a.terms),
        default=0,
    )


class _GrothRing:
    """The arithmetic of Grothendieck-ring expressions for ``expr.evaluate``;
    ``/`` is outside its vocabulary, so it has no ``div``."""

    error = GrothSyntaxError
    vocabulary = frozenset(("pt", "L", "Gm", "Pn", "C", "(", ")", "+", "-", "*", "^", ","))
    functions = frozenset(("Pn", "C"))
    signed_exponents = False
    names = {"pt": GrothElement.point, "L": GrothElement.lefschetz, "Gm": GrothElement.gm}

    integer = staticmethod(GrothElement.from_int)
    neg = staticmethod(operator.neg)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)

    def name(self, name: str) -> GrothElement:
        return self.names[name]()

    def call(self, name: str, n: int) -> GrothElement:
        if n > MAX_ARGUMENT:
            raise GrothSyntaxError(f"argument {n} of {name} is beyond the limit {MAX_ARGUMENT}")
        return GrothElement.proj_space(n) if name == "Pn" else GrothElement.curve(n)

    def mul(self, a: GrothElement, b: GrothElement) -> GrothElement:
        pairs = len(a.terms) * len(b.terms)
        if pairs > MAX_TERM_PAIRS:
            raise GrothSyntaxError(
                f"product of {pairs} term pairs is beyond the limit {MAX_TERM_PAIRS}"
            )
        degree = _degree(a) + _degree(b)
        if degree > MAX_DEGREE:
            raise GrothSyntaxError(
                f"product of Poincare degree {degree} is beyond the limit {MAX_DEGREE}"
            )
        return a * b

    def power(self, x: GrothElement, e: int) -> GrothElement:
        if e > MAX_EXPONENT:
            raise GrothSyntaxError(f"exponent {e} is beyond the limit {MAX_EXPONENT}")
        return _power(x, e, GrothElement.point(), self.mul)

    def finish(self, x: GrothElement) -> GrothElement:
        if any(abs(c) >= INT_DIGITS_BOUND for c in x.terms.values()):
            raise GrothSyntaxError(
                f"value with an integer of more than {MAX_INT_DIGITS} digits is beyond the "
                f"limit {MAX_INT_DIGITS}"
            )
        return x


_GROTH = _GrothRing()


def parse_groth(text: str) -> GrothElement:
    """Parse expressions like ``C(1) - 4*pt`` or ``Gm*Gm + L^2``."""
    return evaluate(_GROTH, text)
