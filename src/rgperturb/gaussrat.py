"""Exact arithmetic over the Gaussian rationals Q(i).

Every symbolic coefficient in this package is a GaussianRational.  A value
is stored as three Python ints (a, b, d), meaning (a + b*i)/d, in canonical
form: d > 0 and gcd(a, b, d) == 1, so each value has exactly one triple
(zero is (0, 0, 1)).  Each operation works on the integers and normalises
its result once, with one three-argument `math.gcd` -- the common-denominator
form of fraction-free computer algebra (Geddes, Czapor and Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2; FLINT's `fmpq`).  The real
and imaginary parts are available as `fractions.Fraction` through the
read-only `re` and `im`.  No floating point enters anywhere in this module
except `complex()`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_alloc = object.__new__


def _raw(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from a triple already in canonical form."""
    v = _alloc(GaussianRational)
    v.a = a
    v.b = b
    v.d = d
    return v


def _canonical(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d in canonical form, for d > 0."""
    g = gcd(d, a, b)
    if g != 1:
        a //= g
        b //= g
        d //= g
    v = _alloc(GaussianRational)  # _raw, inlined: this is the hottest allocator
    v.a = a
    v.b = b
    v.d = d
    return v


class GaussianRational:
    """A value (a + b*i)/d with ints a, b, d, d > 0 and gcd(a, b, d) == 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # over the lcm of two reduced denominators no common factor is left
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and not self.b and self.d == 1

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _canonical(self.a + other.a, self.b + other.b, d1)
        return _canonical(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _canonical(self.a - other.a, self.b - other.b, d1)
        return _canonical(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self) -> "GaussianRational":
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _canonical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a2, b2, d2 = other.a, other.b, other.d
        if not (a2 or b2):
            raise ZeroDivisionError("division by zero in Q(i)")
        a1, b1 = self.a, self.b
        # times the conjugate over the norm, which is positive
        return _canonical(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2),
                          self.d * (a2 * a2 + b2 * b2))

    def conj(self) -> "GaussianRational":
        return _raw(self.a, -self.b, self.d)

    def scale(self, q) -> "GaussianRational":
        """Multiply by an exact rational scalar."""
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        p = q.numerator
        return _canonical(self.a * p, self.b * p, self.d * q.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    # -- rendering ----------------------------------------------------------
    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        ims = "i" if im == 1 else ("-i" if im == -1 else f"{im}*i")
        sep = "+" if not ims.startswith("-") else ""
        return f"({re}{sep}{ims})"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gq(re=0, im=0) -> GaussianRational:
    """Shorthand constructor; accepts ints, Fractions or 'a/b' strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(re, im)
