import random
from fractions import Fraction

import pytest

from rgperturb.gaussrat import gq, I, ONE


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
