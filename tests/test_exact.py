"""Rational substrate: parsing, canonical form, ordering, decimal rendering."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigcheck import parse_rational, rat_str, to_decimal

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


def test_parse_fraction_and_decimal_literals():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.05") == Fraction(1, 20)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("1e-8") == Fraction(1, 10**8)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2", "0x3"])
def test_parse_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_canonical_form():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(2, 4).denominator == 2
    r = Fraction(1, -2)
    assert r.denominator == 2 and r.numerator == -1


def test_arithmetic_examples():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert Fraction(13, 15) - Fraction(1, 7) == Fraction(76, 105)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_ordering_examples():
    assert Fraction(1, 3) == Fraction(2, 6)
    assert Fraction(-1, 2) < 0
    assert Fraction(1, 7) > Fraction(1, 8)


def test_floor_ceil_examples():
    assert math.floor(Fraction(7, 2)) == 3
    assert math.ceil(Fraction(-7, 2)) == -3
    assert math.ceil(Fraction(2) / Fraction(1, 2) - Fraction(3, 2)) == 3


@given(rationals)
def test_floor_ceil_galois(a):
    f = math.floor(a)
    c = math.ceil(a)
    assert f <= a < f + 1
    assert c - 1 < a <= c


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@pytest.mark.parametrize("value,digits,expected", [
    (Fraction(1, 3), 4, "0.3333"),
    (Fraction(304, 105), 3, "2.895"),
    (Fraction(1, 2), 0, "1"),
    (Fraction(-1, 2), 0, "-1"),
    (Fraction(-1, 4), 0, "0"),
    (Fraction(999, 1000), 2, "1.00"),
    (Fraction(5), 0, "5"),
])
def test_to_decimal_examples(value, digits, expected):
    assert to_decimal(value, digits) == expected


def test_to_decimal_rejects_negative_digits():
    with pytest.raises(ValueError):
        to_decimal(Fraction(1, 3), -1)


@given(rationals, st.integers(min_value=0, max_value=8))
def test_to_decimal_round_trip_bound(a, digits):
    rendered = to_decimal(a, digits)
    assert abs(parse_rational(rendered) - a) <= Fraction(5, 10 ** (digits + 1))


def test_rat_str():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-5)) == "-5"


def test_rat_str_handles_huge_values():
    huge = Fraction(2**30000 + 1, 3)  # around 9000 decimal digits
    text = rat_str(huge)
    assert text.endswith("/3")
    assert len(text) > 4300


@pytest.fixture
def default_digit_limit():
    """Pin CPython's int-to-str digit limit at its default (4300) for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_to_decimal_renders_past_the_digit_limit(default_digit_limit):
    assert to_decimal(Fraction(1, 3), 5000) == "0." + "3" * 5000
    assert to_decimal(Fraction(-2, 3), 5000) == "-0." + "6" * 4999 + "7"


def test_rat_str_renders_past_the_digit_limit(default_digit_limit):
    assert rat_str(Fraction(10**5000 - 1, 7)) == "9" * 5000 + "/7"
    assert rat_str(Fraction(-(10**5000) - 1)) == "-1" + "0" * 4999 + "1"


def test_rendering_leaves_the_digit_limit_alone(default_digit_limit):
    rat_str(Fraction(2**30000 + 1, 3))
    to_decimal(Fraction(1, 7), 9000)
    assert sys.get_int_max_str_digits() == 4300
