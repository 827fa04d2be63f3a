"""Exact arithmetic over the Gaussian rationals Q(i).

Every symbolic coefficient in this package is a GaussianRational.  The real
and imaginary parts are `fractions.Fraction` instances, so arithmetic is
arbitrary precision and values are always stored in lowest terms with a
positive denominator.  No floating point enters anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A value re + i*im with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def _new(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # fast path: callers guarantee Fraction inputs
        v = cls.__new__(cls)
        v.re = re
        v.im = im
        return v

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._new(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._new(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._new(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._new(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, d = other.re, other.im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self.re, self.im
        return GaussianRational._new((a * c + b * d) / n, (b * c - a * d) / n)

    def conj(self) -> "GaussianRational":
        return GaussianRational._new(self.re, -self.im)

    def scale(self, q) -> "GaussianRational":
        """Multiply by an exact rational scalar."""
        q = q if isinstance(q, Fraction) else Fraction(q)
        return GaussianRational._new(self.re * q, self.im * q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # -- rendering ----------------------------------------------------------
    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        ims = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}*i")
        sep = "+" if not ims.startswith("-") else ""
        return f"({self.re}{sep}{ims})"

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
