"""Dense univariate polynomials and rational functions over an exact field.

Coefficients live in one of two exact fields: the rationals or a prime
field F_p (elements are ints in ``[0, p)``).  Over Q an integral value is
built as a plain int, and only a value with a denominator as a
``fractions.Fraction`` (see ``RationalField``), so the integer arithmetic
that makes up most of the work runs at int speed, as in Cremona's
integer-only Tate's algorithm (*Algorithms for Modular Elliptic Curves*,
1997).

A polynomial a_0 + a_1 t + ... + a_n t^n is stored as the tuple
``(a_0, ..., a_n)`` with a nonzero top coefficient; the zero polynomial is
the empty tuple.  Zero coefficients are stored but never worked on:
products and divisions loop over the nonzero terms only, and test a
coefficient for zero by its truth value, so sparse polynomials such as
t^500 cost what their few terms cost, not what their degree does.

Rational functions are stored as a reduced pair ``num/den`` with ``den``
monic and ``gcd(num, den) = 1``, so the t-adic order of either part is
read off the first nonzero coefficient and never needs series expansion.
The constructor reduces an arbitrary pair with one gcd.  Sums, differences,
products and quotients of two reduced operands are built already reduced by
Henrici's cross-cancellation, which takes gcds of the operands' smaller
parts instead of the gcd of the unreduced result (P. Henrici, J. ACM 3,
1956); only a quotient still needs scaling to make its denominator monic.
Over Q, ``Poly.gcd_monic`` of two non-constant polynomials first tries to
certify coprimality by one Euclid modulo the prime 2^61 - 1.  Where that
certificate does not apply it runs Euclid on primitive integer multiples,
dividing out the content of each pseudo-remainder, which bounds the
coefficient swell of remainders over Q; the monic gcd is unique, so every
gcd is exact and the same as plain Euclid's.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class RationalField:
    """The field Q.  An integral element is an int, any other a Fraction.

    ``normalize``, ``from_fraction``, ``invert`` and ``div`` return an int
    whenever the value is integral.  ``add``, ``sub``, ``mul`` and ``neg``
    are the bare operators, so an integral result of Fraction arithmetic may
    stay a Fraction.  It compares, hashes and prints exactly like the int,
    so no stored value or output depends on which of the two it is.
    """

    char = 0
    zero = 0
    one = 1

    def normalize(self, a):
        if isinstance(a, (int, Fraction)):
            return self.from_fraction(a)
        raise TypeError(f"cannot coerce {a!r} into Q")

    def from_fraction(self, q):
        # An int's numerator is a plain int, so a bool comes back as 0 or 1.
        return q.numerator if q.denominator == 1 else q

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return self.from_fraction(1 / Fraction(a))

    def div(self, a, b):
        return self.from_fraction(a * self.invert(b))

    def pth_root(self, a):
        raise ArithmeticError("no Frobenius root in characteristic 0")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p. Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def normalize(self, a):
        if isinstance(a, int):
            return a % self.p
        if isinstance(a, Fraction):
            return self.from_fraction(a)
        raise TypeError(f"cannot coerce {a!r} into F_{self.p}")

    def from_fraction(self, q: Fraction) -> int:
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"{q} has no image in F_{self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.invert(b) % self.p

    def pth_root(self, a):
        # Frobenius x -> x^p is the identity on the prime field.
        return a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


# Miller-Rabin with the first twelve prime bases is deterministic below
# psi_12, the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic primality test; raises ValueError at or above the proven range."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is beyond the range {MILLER_RABIN_LIMIT} where primality is decided"
        )
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The prime modulo which gcd_monic certifies coprimality over Q.
CERTIFICATE_PRIME = (1 << 61) - 1


def _image_mod_p(coeffs, p):
    """Coefficients mod p, or None when p divides a denominator or the leading
    coefficient, where reduction mod p could lose a common factor."""
    if coeffs[-1].numerator % p == 0:
        return None
    image = []
    for c in coeffs:
        if c.denominator == 1:
            image.append(c.numerator % p)
        elif c.denominator % p == 0:
            return None
        else:
            image.append(c.numerator * pow(c.denominator, -1, p) % p)
    return image


def _gcd_degree_mod_p(a, b, p) -> int:
    """Degree of gcd(a, b) over F_p, for coefficient lists with nonzero tops."""
    while b:
        inv_lead = pow(b[-1], -1, p)
        a = list(a)
        top = len(b) - 1
        while len(a) > top:
            c = a[-1] * inv_lead % p
            shift = len(a) - len(b)
            for j in range(top):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime_certified(a, b) -> bool:
    """True only if the polynomials over Q with coefficients a and b are coprime.

    With p dividing no denominator and neither leading coefficient, reduction
    mod p keeps both degrees, and a common factor over Q (taken p-integral
    and primitive, by Gauss's lemma) reduces to a common factor of the same
    degree.  So a constant gcd mod p proves the gcd over Q is 1.  A False
    answer proves nothing.
    """
    p = CERTIFICATE_PRIME
    image_a = _image_mod_p(a, p)
    if image_a is None:
        return False
    image_b = _image_mod_p(b, p)
    if image_b is None:
        return False
    return _gcd_degree_mod_p(image_a, image_b, p) == 0


def _primitive_part(ints):
    """Integer coefficients divided by their content, with a positive top."""
    content = 0
    for c in ints:
        content = gcd(content, c)
        if content == 1:
            break
    if ints[-1] < 0:
        content = -content
    return ints if content == 1 else [c // content for c in ints]


def _primitive_integer(coeffs):
    """Primitive integer multiple of a polynomial over Q with nonzero top."""
    # A loop, not math.lcm(*...): in the verifier's runs the starred call
    # raised peak RSS round after round, with nothing left allocated.
    den = 1
    for c in coeffs:
        if c.denominator != 1:
            den = den // gcd(den, c.denominator) * c.denominator
    return _primitive_part([c.numerator * (den // c.denominator) for c in coeffs])


def _primitive_gcd(a, b):
    """Primitive gcd in Z[t] of primitive coefficient lists with nonzero tops.

    Euclid on pseudo-remainders with the content divided out at each step:
    the remainders stay primitive, so their coefficients cannot swell the
    way remainders over Q do (Knuth, TAOCP vol. 2, 4.6.1, Algorithm E).
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead = b[-1]
        top = len(b) - 1
        terms = [(j, d) for j, d in enumerate(b[:top]) if d]
        rem = list(a)
        # Each step scales rem by lead / g and takes c / g times b, where g
        # = gcd(lead, c), which cancels the top term c with less growth
        # than scaling by lead itself.
        for i in range(len(rem) - len(b), -1, -1):
            c = rem.pop()
            if not c:
                continue
            g = gcd(lead, c)
            scale, c = lead // g, c // g
            if scale != 1:
                rem = [scale * x for x in rem]
            for j, d in terms:
                rem[i + j] -= c * d
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, _primitive_part(rem) if rem else rem
    return a


class Poly:
    """Dense polynomial in t over a RationalField or PrimeField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [field.normalize(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _trimmed(cls, field, cs: list):
        """Wrap a list of coefficients already in ``field``; only drops zero tops."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def gen(cls, field):
        return cls(field, (field.zero, field.one))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def t_order(self):
        """Index of the first nonzero coefficient; None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly._trimmed(f, out)

    def __neg__(self):
        f = self.field
        return Poly._trimmed(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly._trimmed(f, [])
        add, mul = f.add, f.mul
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in terms:
                out[i + j] = add(out[i + j], mul(a, b))
        return Poly._trimmed(f, out)

    def scale(self, c):
        f = self.field
        c = f.normalize(c)
        return Poly._trimmed(f, [f.mul(c, a) for a in self.coeffs])

    def shift(self, k: int):
        """Multiply by t^k."""
        if self.is_zero() or k == 0:
            return self if k >= 0 else self._shift_down(-k)
        if k < 0:
            return self._shift_down(-k)
        return Poly._trimmed(self.field, [self.field.zero] * k + list(self.coeffs))

    def _shift_down(self, k: int):
        order = self.t_order()
        if order is None:
            return self
        if order < k:
            raise ValueError("shift would leave the polynomial ring")
        return Poly._trimmed(self.field, list(self.coeffs[k:]))

    def divmod(self, other):
        """Euclidean division; ``other`` must be nonzero."""
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        top = len(div) - 1
        dq = len(rem) - len(div)
        if dq < 0:
            return Poly._trimmed(f, []), self
        inv_lead = f.invert(div[-1])
        sub, mul = f.sub, f.mul
        # The top term is left out: it only cancels rem[i + top], which is
        # never read again.
        terms = [(j, d) for j, d in enumerate(div[:top]) if d]
        quo = [f.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            r = rem[i + top]
            if not r:
                continue
            c = mul(r, inv_lead)
            quo[i] = c
            for j, d in terms:
                rem[i + j] = sub(rem[i + j], mul(c, d))
        return Poly._trimmed(f, quo), Poly._trimmed(f, rem[:top])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.invert(self.leading()))

    def derivative(self):
        f = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(f.mul(f.normalize(i), c))
        return Poly._trimmed(f, out)

    def compose_power(self, d: int):
        """Substitute t -> t^d."""
        if d < 1:
            raise ValueError("power substitution needs d >= 1")
        if d == 1 or self.is_zero():
            return self
        f = self.field
        out = [f.zero] * ((len(self.coeffs) - 1) * d + 1)
        for i, c in enumerate(self.coeffs):
            out[i * d] = c
        return Poly._trimmed(f, out)

    def gcd_monic(self, other):
        f = self.field
        if f.char == 0 and len(self.coeffs) > 1 and len(other.coeffs) > 1:
            if _coprime_certified(self.coeffs, other.coeffs):
                return Poly._trimmed(f, [f.one])
            g = _primitive_gcd(
                _primitive_integer(self.coeffs), _primitive_integer(other.coeffs)
            )
            lead = g[-1]
            return Poly._trimmed(f, [f.from_fraction(Fraction(c, lead)) for c in g])
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == self.field.one else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == self.field.one else f"{c}*t^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.field!r}, {self})"


class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field != den.field:
            raise ValueError("numerator and denominator over different fields")
        if num.is_zero():
            den = Poly._trimmed(num.field, [num.field.one])
        else:
            g = num.gcd_monic(den)
            if g.degree() > 0:
                num = num // g
                den = den // g
            lead_inv = num.field.invert(den.leading())
            num = num.scale(lead_inv)
            den = den.scale(lead_inv)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly):
        """Wrap a pair already known coprime with ``den`` monic; runs no gcd."""
        rf = object.__new__(cls)
        if num.is_zero():
            den = Poly._trimmed(num.field, [num.field.one])
        rf.num = num
        rf.den = den
        return rf

    @classmethod
    def constant(cls, field, c):
        return cls(Poly.constant(field, c), Poly.constant(field, field.one))

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly._trimmed(p.field, [p.field.one]))

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def t_order(self):
        """t-adic valuation; None for the zero function."""
        n = self.num.t_order()
        if n is None:
            return None
        return n - self.den.t_order()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        # With g = gcd(b, d), a/b + c/d = s/(b' d' g) for b = b'g, d = d'g and
        # s = a d' + c b'.  s is coprime to b' and to d', so the only common
        # factor left is gcd(s, g).
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return other
        if c.is_zero():
            return self
        g = b.gcd_monic(d)
        if g.degree() == 0:
            return RationalFunction._reduced(a * d + c * b, b * d)
        b_over_g, d_over_g = b // g, d // g
        s = a * d_over_g + c * b_over_g
        if s.is_zero():
            return RationalFunction._reduced(s, d)
        h = s.gcd_monic(g)
        if h.degree() > 0:
            s, d = s // h, d // h
        return RationalFunction._reduced(s, b_over_g * d)

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction._reduced(
            *_cross_cancelled(self.num, self.den, other.num, other.den)
        )

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        num, den = _cross_cancelled(self.num, self.den, other.den, other.num)
        f = self.field
        lead = den.leading()
        if lead != f.one:
            lead_inv = f.invert(lead)
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        return RationalFunction._reduced(num, den)

    def compose_power(self, d: int):
        # t -> t^d maps a Bezout identity u num + v den = 1 to another, so
        # the result stays coprime, and its denominator stays monic.
        return RationalFunction._reduced(
            self.num.compose_power(d), self.den.compose_power(d)
        )

    def unit_part_at_origin(self):
        """Value of t^-v(x) * x at t = 0, for nonzero x."""
        n = self.num.t_order()
        if n is None:
            raise ZeroDivisionError("zero has no unit part")
        d = self.den.t_order()
        f = self.field
        top = self.num.coeffs[n]
        bot = self.den.coeffs[d]
        return f.div(top, bot)

    def __str__(self):
        if self.den.degree() == 0 and self.den.constant_term() == self.field.one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _cross_cancelled(a: Poly, b: Poly, c: Poly, d: Poly):
    """(a/b) * (c/d) as a coprime pair, for coprime a, b and coprime c, d.

    Cancelling gcd(a, d) and gcd(c, b) leaves no common factor, because a
    and b, and c and d, share none.  The denominator is monic when b and d
    are.
    """
    if a.is_zero() or c.is_zero():
        return Poly._trimmed(a.field, []), b
    g = a.gcd_monic(d)
    if g.degree() > 0:
        a, d = a // g, d // g
    g = c.gcd_monic(b)
    if g.degree() > 0:
        c, b = c // g, b // g
    return a * c, b * d
