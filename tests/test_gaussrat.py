import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rgperturb.gaussrat import GaussianRational, gq, I, ONE


def test_i_squared():
    assert I * I == gq(-1)


def test_rationalize_division():
    assert ONE / gq(0, -3) == gq(0, Fraction(1, 3))


def test_modulus_squared():
    a = gq(Fraction(2, 3), 1)
    assert a * a.conj() == gq(Fraction(13, 9))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / gq(0)


def test_dispatch_ops():
    a, b = gq(1, 2), gq(3, -1)
    assert a + b == gq(4, 1)
    assert a - b == gq(-2, 3)
    assert a * b == gq(5, 5)
    assert (a * b) / b == a


def test_field_axioms_randomized():
    rng = random.Random(20240817)

    def rand():
        return gq(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_rendering():
    assert str(gq(0)) == "0"
    assert str(gq(0, 1)) == "i"
    assert str(gq(0, -1)) == "-i"
    assert str(gq(Fraction(1, 3))) == "1/3"
    assert str(gq(0, Fraction(-2, 3))) == "-2/3*i"
    assert str(gq(Fraction(1, 2), Fraction(3, 4))) == "(1/2+3/4*i)"


class ReferenceGaussianRational:
    """The Fraction-pair Q(i) value the integer triple replaced: re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def is_zero(self):
        return not self.re and not self.im

    def is_one(self):
        return self.re == 1 and not self.im

    def __add__(self, other):
        return ReferenceGaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ReferenceGaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ReferenceGaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return ReferenceGaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self.re, self.im
        return ReferenceGaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def conj(self):
        return ReferenceGaussianRational(self.re, -self.im)

    def scale(self, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        return ReferenceGaussianRational(self.re * q, self.im * q)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
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

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


BIG = 2 ** 200
# tall and tiny parts of both signs, and exact zeros
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
parts = st.tuples(rationals, rationals)


def assert_canonical(v):
    assert type(v.a) is int and type(v.b) is int and type(v.d) is int
    assert v.d > 0 and math.gcd(v.a, v.b, v.d) == 1


def same_float(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_agrees(v, ref):
    """The triple `v` holds the value `ref` and shows it the same way."""
    assert_canonical(v)
    assert type(v.re) is Fraction and type(v.im) is Fraction
    assert (v.re, v.im) == (ref.re, ref.im)
    assert v.is_zero() == ref.is_zero() and v.is_one() == ref.is_one()
    assert str(v) == str(ref) and repr(v) == repr(ref)
    z, zr = complex(v), complex(ref)
    assert same_float(z.real, zr.real) and same_float(z.imag, zr.imag)


class TestMatchesReference:
    """The integer triple against the Fraction-pair reference, op by op."""

    @settings(max_examples=300, deadline=None)
    @given(parts, parts, rationals, st.integers(-5, 5))
    def test_ops(self, x, y, q, k):
        u, v = GaussianRational(*x), GaussianRational(*y)
        ur, vr = ReferenceGaussianRational(*x), ReferenceGaussianRational(*y)
        assert_agrees(u, ur)
        assert_agrees(v, vr)
        assert_agrees(u + v, ur + vr)
        assert_agrees(u - v, ur - vr)
        assert_agrees(u * v, ur * vr)
        assert_agrees(-u, -ur)
        assert_agrees(u.conj(), ur.conj())
        assert_agrees(u.scale(q), ur.scale(q))
        assert_agrees(u.scale(k), ur.scale(k))
        assert (u == v) == (ur == vr)
        if vr.is_zero():
            with pytest.raises(ZeroDivisionError):
                u / v
        else:
            w = u / v
            assert_agrees(w, ur / vr)
            assert w * v == u and hash(w * v) == hash(u)

    @settings(max_examples=100, deadline=None)
    @given(parts)
    def test_division_by_rationals(self, x):
        # rational divisors of both signs, and rationals divided by Gaussian ones
        u, ur = GaussianRational(*x), ReferenceGaussianRational(*x)
        for re in (Fraction(-3), Fraction(-2, 7), Fraction(5, 4), x[1] or Fraction(-1)):
            r, rr = GaussianRational(re), ReferenceGaussianRational(re)
            assert_agrees(u / r, ur / rr)
            if not ur.is_zero():
                assert_agrees(r / u, rr / ur)

    def test_constructor_forms(self):
        for args in [(), (0,), (1,), (-7, 3), (Fraction(6, 4), Fraction(-1, 6)),
                     ("1/3",), (0.5, -0.25), (Fraction(0), Fraction(2, 3))]:
            assert_agrees(GaussianRational(*args), ReferenceGaussianRational(*args))
        assert_agrees(gq("-2/6", "4/8"), ReferenceGaussianRational(Fraction(-1, 3), Fraction(1, 2)))
