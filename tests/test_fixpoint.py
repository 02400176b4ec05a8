"""Grid fix-point datatype: rounding kernel, exact add/sub, half-step mul/div."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_fixpoint import in_range
from trigcheck import FixFormat, FixNum
from trigcheck.errors import FormatMismatch, RangeOverflow

TENTHS = FixFormat(10, Fraction(-2), Fraction(2))
K256 = FixFormat(256, Fraction(-8), Fraction(64))


def test_format_literal_round_trip():
    fmt = FixFormat.parse("1/256:[-8,64]")
    assert fmt == K256
    assert str(fmt) == "1/256:[-8,64]"
    assert fmt.step == Fraction(1, 256)


@pytest.mark.parametrize("bad", ["1/256", "2/3:[-1,1]", "1/256:[-8 64]", "1/256:(-8,64)"])
def test_format_literal_rejects_junk(bad):
    with pytest.raises(ValueError):
        FixFormat.parse(bad)


def test_format_invariants():
    with pytest.raises(ValueError):
        FixFormat(1, Fraction(-1), Fraction(1))           # step must be below 1
    with pytest.raises(ValueError):
        FixFormat(10, Fraction(1, 10), Fraction(1))       # inf must be negative
    with pytest.raises(ValueError):
        FixFormat(10, Fraction(-1), Fraction(1, 3))       # bounds must be on the grid


def test_rounding_kernel_ties_to_even():
    assert TENTHS.from_rat(Fraction(1, 4)).m == 2    # tie 0.25 -> 0.2, even m
    assert TENTHS.from_rat(Fraction(1, 5)).m == 2    # representable, unchanged
    assert TENTHS.from_rat(Fraction(-1, 4)).m == -2  # mirror tie
    assert TENTHS.from_rat(Fraction(3, 20)).m == 2   # tie 0.15 -> 0.2


def test_rounding_kernel_boundary_band():
    half = TENTHS.step / 2
    assert TENTHS.from_rat(TENTHS.sup + half).to_rat() == TENTHS.sup
    assert TENTHS.from_rat(TENTHS.inf - half).to_rat() == TENTHS.inf
    with pytest.raises(RangeOverflow):
        TENTHS.from_rat(TENTHS.sup + half + Fraction(1, 1000))
    with pytest.raises(RangeOverflow, match=r"undershoots inf=-2 by more than step/2"):
        TENTHS.from_rat(TENTHS.inf - half - Fraction(1, 1000))


@given(st.fractions(min_value=-2, max_value=2, max_denominator=10**4))
def test_rounding_kernel_half_step_error(r):
    rounded = TENTHS.from_rat(r)
    assert abs(rounded.to_rat() - r) <= TENTHS.step / 2


@given(st.fractions(min_value=-2, max_value=2, max_denominator=10**4),
       st.fractions(min_value=-2, max_value=2, max_denominator=10**4))
def test_rounding_kernel_monotone(r, s):
    if r > s:
        r, s = s, r
    assert TENTHS.from_rat(r).m <= TENTHS.from_rat(s).m


@given(st.fractions(min_value=-2, max_value=2, max_denominator=10**4))
def test_rounding_kernel_sign_symmetric(r):
    assert TENTHS.from_rat(-r).m == -TENTHS.from_rat(r).m


@given(st.integers(min_value=-20, max_value=20))
def test_rounding_kernel_idempotent(m):
    value = FixNum(m, TENTHS)
    assert TENTHS.from_rat(value.to_rat()).m == m


def test_add_sub_examples():
    assert (FixNum(3, TENTHS) + FixNum(4, TENTHS)).to_rat() == Fraction(7, 10)
    one = K256.from_int(1)
    eighth = K256.exact(Fraction(1, 8))
    assert (one - eighth).m == 224
    with pytest.raises(RangeOverflow):
        FixNum(TENTHS.m_sup, TENTHS) + FixNum(1, TENTHS)
    with pytest.raises(RangeOverflow):
        FixNum(TENTHS.m_inf, TENTHS) - FixNum(1, TENTHS)


def test_format_mismatch_rejected():
    with pytest.raises(FormatMismatch):
        FixNum(1, TENTHS) + FixNum(1, K256)
    with pytest.raises(FormatMismatch):
        FixNum(1, TENTHS) < FixNum(1, K256)


@pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a < b])
def test_non_fixnum_operand_rejected(op):
    with pytest.raises(TypeError, match="expected FixNum, got int"):
        op(FixNum(1, TENTHS), 1)


def test_gt_ge_reflect_to_lt_le():
    # FixNum defines only < and <=; > and >= reach them by reflection
    one, two = FixNum(1, TENTHS), FixNum(2, TENTHS)
    assert (two > one, one > two, one > one) == (True, False, False)
    assert (two >= one, one >= two, one >= one) == (True, False, True)
    with pytest.raises(FormatMismatch):
        FixNum(1, TENTHS) > FixNum(1, K256)
    with pytest.raises(FormatMismatch):
        FixNum(1, TENTHS) >= FixNum(1, K256)


def test_mul_div_examples():
    half256 = K256.exact(Fraction(1, 2))
    assert (half256 * half256).to_rat() == Fraction(1, 4)       # representable, exact
    three = K256.from_int(3)
    assert (half256 / three).m == 43                            # 1/6 rounds up to 43/256
    half10 = TENTHS.exact(Fraction(1, 2))
    assert (half10 * half10).to_rat() == Fraction(1, 5)         # tie 0.25 -> 0.2


def test_div_ties_to_even():
    two = TENTHS.from_int(2)
    assert (TENTHS.exact(Fraction(1, 2)) / two).m == 2      # 0.25 tie -> 0.2
    assert (TENTHS.exact(Fraction(3, 2)) / two).m == 8      # 0.75 tie -> 0.8
    assert (TENTHS.exact(Fraction(-1, 2)) / two).m == -2
    odd = FixFormat(5, Fraction(-2), Fraction(2))
    assert (FixNum(1, odd) / odd.from_int(2)).m == 0        # 0.1 -> tie at m 0.5 -> 0


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        FixNum(1, TENTHS) / FixNum(0, TENTHS)


def test_mul_overflow_on_exact_result():
    with pytest.raises(RangeOverflow):
        K256.from_int(32) * K256.from_int(32)


def test_to_rat_examples():
    assert FixNum(224, K256).to_rat() == Fraction(7, 8)
    assert FixNum(0, TENTHS).to_rat() == 0
    assert FixNum(-5, K256).to_rat() == Fraction(-5, 256)


def test_str_rendering():
    assert str(FixNum(224, K256)) == "224/256"
    assert str(FixNum(7, TENTHS)) == "0.7"
    assert str(FixNum(-5, TENTHS)) == "-0.5"
    hundredths = FixFormat(100, Fraction(-1), Fraction(1))
    assert str(FixNum(20, hundredths)) == "0.20"


def decimal_layout(m: int, digits: int) -> str:
    """`str` of m on a 1/10^digits grid, as FixNum once laid out the digits itself."""
    sign = "-" if m < 0 else ""
    text = str(abs(m)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@given(st.integers(1, 12), st.data())
def test_str_keeps_the_decimal_layout(digits, data):
    fmt = FixFormat(10**digits, Fraction(-1000), Fraction(1000))
    drawn = data.draw(st.one_of(st.integers(-fmt.k, fmt.k), st.integers(fmt.m_inf, fmt.m_sup)))
    for m in (0, -1, 1 - fmt.k, fmt.m_inf, drawn):
        assert str(FixNum(m, fmt)) == decimal_layout(m, digits)


def test_out_of_range_value_rejected():
    with pytest.raises(RangeOverflow):
        FixNum(TENTHS.m_sup + 1, TENTHS)


def test_exact_embedding_rejects_off_grid():
    with pytest.raises(ValueError):
        K256.exact(Fraction(1, 3))


@given(st.integers(min_value=-160, max_value=160),
       st.integers(min_value=-160, max_value=160))
def test_mul_half_step_bound_against_exact(m1, m2):
    fmt = FixFormat(16, Fraction(-16), Fraction(16))
    a, b = FixNum(m1, fmt), FixNum(m2, fmt)
    exact = a.to_rat() * b.to_rat()
    if in_range(fmt, exact):
        result = (a * b).to_rat()
        assert abs(result - exact) <= fmt.step / 2
        if (exact * fmt.k).denominator == 1:
            assert result == exact
    else:
        with pytest.raises(RangeOverflow):
            a * b


@given(st.integers(min_value=-160, max_value=160),
       st.integers(min_value=-160, max_value=160))
def test_integer_scaling_is_exact(m, j):
    fmt = FixFormat(16, Fraction(-16), Fraction(16))
    a = FixNum(m, fmt)
    scale = j // 16
    if not in_range(fmt, a.to_rat() * scale):
        return
    assert (a * fmt.from_int(scale)).to_rat() == a.to_rat() * scale
