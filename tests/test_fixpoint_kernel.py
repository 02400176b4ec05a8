"""The integer FixNum kernel against an exact-rational path, for all five operations.

`fraction_mul`/`fraction_div` are the reference for `*` and `/`: they form the
exact rational result, range-check it against [inf, sup], and round it with
`from_rat`. `fraction_add`/`fraction_sub`/`fraction_neg` are the reference for
the exact operations: they form the exact result, range-check it, and build it
with `FixNum`. The kernel must give the same grid value, or raise the same
exception with the same message, on every operand pair.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcheck import FixFormat, FixNum
from trigcheck.errors import FormatMismatch, RangeOverflow

FORMATS = (
    FixFormat(3, Fraction(-2), Fraction(5)),                  # odd k
    FixFormat(5, Fraction(-1), Fraction(3)),                  # odd k
    FixFormat(10, Fraction(-2), Fraction(2)),                 # even k
    FixFormat(10, Fraction(-3, 10), Fraction(7, 5)),          # bounds off the integers
    FixFormat(256, Fraction(-8), Fraction(64)),               # even k
    FixFormat(2**40, Fraction(-8), Fraction(1024)),
)


def in_range(fmt: FixFormat, value: Fraction) -> bool:
    return fmt.inf <= value <= fmt.sup


def fraction_mul(a: FixNum, b: FixNum) -> FixNum:
    exact = Fraction(a.m * b.m, a.fmt.k**2)
    if not in_range(a.fmt, exact):
        raise RangeOverflow(f"exact product {exact} leaves range")
    return a.fmt.from_rat(exact)


def fraction_div(a: FixNum, b: FixNum) -> FixNum:
    if b.m == 0:
        raise ZeroDivisionError("fix-point division by zero")
    exact = Fraction(a.m, b.m)
    if not in_range(a.fmt, exact):
        raise RangeOverflow(f"exact quotient {exact} leaves range")
    return a.fmt.from_rat(exact)


def exact_result(fmt: FixFormat, exact: Fraction) -> FixNum:
    m = int(exact * fmt.k)  # grid operands give a result on the grid
    if not in_range(fmt, exact):
        raise RangeOverflow(f"{m}/{fmt.k} outside [{fmt.inf}, {fmt.sup}]")
    return FixNum(m, fmt)


def fraction_add(a: FixNum, b: FixNum) -> FixNum:
    return exact_result(a.fmt, a.to_rat() + b.to_rat())


def fraction_sub(a: FixNum, b: FixNum) -> FixNum:
    return exact_result(a.fmt, a.to_rat() - b.to_rat())


def fraction_neg(a: FixNum) -> FixNum:
    return exact_result(a.fmt, -a.to_rat())


def outcome(fn, *operands: FixNum):
    try:
        return fn(*operands)
    except (RangeOverflow, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def anchors(fmt: FixFormat) -> list[int]:
    """Multiples where range checks and rounding change: the bounds, the
    roots of the product bounds, one unit, and zero."""
    roots = [math.isqrt(fmt.m_sup * fmt.k), math.isqrt(-fmt.m_inf * fmt.k)]
    return [fmt.m_inf, fmt.m_sup, 0, fmt.k, -fmt.k, *roots, *(-r for r in roots)]


def fixnums(fmt: FixFormat):
    near = st.builds(lambda m, d: m + d, st.sampled_from(anchors(fmt)), st.integers(-3, 3))
    anywhere = st.integers(fmt.m_inf, fmt.m_sup)
    small = st.integers(-3 * fmt.k, 3 * fmt.k)
    return st.one_of(near, anywhere, small).map(
        lambda m: FixNum(min(max(m, fmt.m_inf), fmt.m_sup), fmt))


def operand_pairs():
    return st.sampled_from(FORMATS).flatmap(lambda fmt: st.tuples(fixnums(fmt), fixnums(fmt)))


@settings(max_examples=500)
@given(operand_pairs())
def test_mul_matches_fraction_path(pair):
    a, b = pair
    assert outcome(FixNum.__mul__, a, b) == outcome(fraction_mul, a, b)


@settings(max_examples=500)
@given(operand_pairs())
def test_div_matches_fraction_path(pair):
    a, b = pair
    assert outcome(FixNum.__truediv__, a, b) == outcome(fraction_div, a, b)


@settings(max_examples=500)
@given(operand_pairs())
def test_add_sub_neg_match_fraction_path(pair):
    a, b = pair
    assert outcome(FixNum.__add__, a, b) == outcome(fraction_add, a, b)
    assert outcome(FixNum.__sub__, a, b) == outcome(fraction_sub, a, b)
    assert outcome(FixNum.__neg__, a) == outcome(fraction_neg, a)


@pytest.mark.parametrize("fmt", FORMATS, ids=str)
def test_kernel_matches_fraction_path_at_anchors(fmt):
    values = [FixNum(min(max(m + d, fmt.m_inf), fmt.m_sup), fmt)
              for m in anchors(fmt) for d in (-1, 0, 1)]
    for a in values:
        assert outcome(FixNum.__neg__, a) == outcome(fraction_neg, a)
        for b in values:
            assert outcome(FixNum.__mul__, a, b) == outcome(fraction_mul, a, b)
            assert outcome(FixNum.__truediv__, a, b) == outcome(fraction_div, a, b)
            assert outcome(FixNum.__add__, a, b) == outcome(fraction_add, a, b)
            assert outcome(FixNum.__sub__, a, b) == outcome(fraction_sub, a, b)


def test_format_identity_unchanged_by_cached_bounds():
    fmt = FixFormat(256, Fraction(-8), Fraction(64))
    twin = FixFormat.parse("1/256:[-8,64]")
    assert fmt == twin and fmt is not twin
    assert fmt != FixFormat(256, Fraction(-8), Fraction(32))
    assert hash(fmt) == hash(twin) == hash((256, Fraction(-8), Fraction(64)))
    assert repr(fmt) == "FixFormat(k=256, inf=Fraction(-8, 1), sup=Fraction(64, 1))"
    assert str(fmt) == "1/256:[-8,64]"
    assert (fmt.m_inf, fmt.m_sup) == (-2048, 16384)
    # the comparison key is exactly (k, inf, sup): each one alone tells formats apart,
    # and the cached m_inf/m_sup, which follow from them, are not part of the repr
    for k, inf, sup in ((128, -8, 64), (256, -4, 64), (256, -8, 32)):
        assert fmt != FixFormat(k, Fraction(inf), Fraction(sup))
    assert "m_inf" not in repr(fmt) and "m_sup" not in repr(fmt)


def test_equal_formats_mix_and_distinct_ones_do_not():
    a = FixNum(3, FixFormat(10, Fraction(-2), Fraction(2)))
    b = FixNum(4, FixFormat(10, Fraction(-2), Fraction(2)))
    assert (a * b).m == 1 and (a + b).m == 7
    with pytest.raises(FormatMismatch):
        a * FixNum(4, FixFormat(10, Fraction(-2), Fraction(3)))


def test_fixnum_is_slotted_and_frozen():
    x = FixNum(1, FORMATS[0])
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError, match="cannot assign to field 'm'"):
        x.m = 2
