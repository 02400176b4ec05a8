"""Strict binary32 cosine loop: small arguments fine, moderate ones explode."""

from __future__ import annotations

from fractions import Fraction

import pytest

from trigcheck import cos_code_in_c, cos_unbounded, f32, scan_table
from trigcheck.errors import IterationCapExceeded, NonPositiveEps
from trigcheck import floatrepro
from trigcheck.floatrepro import ITERATION_CAP_ENV, iteration_cap

EPS = f32("1e-6")


def test_binary32_strictness_canaries():
    # one ulp below the rounding threshold vanishes, one at the threshold does not
    assert f32(f32(1.0) + f32(2.0**-24)) == f32(1.0)
    assert f32(f32(1.0) + f32(2.0**-23)) != f32(1.0)
    # a returned value holds a binary32 value: it survives a round trip unchanged
    for value in (f32("0.1"), cos_code_in_c(f32("0.1"), EPS), cos_code_in_c(f32(29), EPS)):
        assert type(value) is float and f32(value) == value


def test_zero_argument():
    assert cos_code_in_c(f32(0.0), EPS) == f32(1.0)


@pytest.mark.parametrize("x,expected", [
    ("0.05", 0.9987502),
    ("0.1", 0.9950042),
])
def test_small_argument_rows(x, expected):
    value = float(cos_code_in_c(f32(x), EPS))
    assert abs(value - expected) / expected <= 1e-3


def test_small_arguments_agree_with_exact_series():
    for text in ("-1", "-0.5", "0.25", "0.75", "1"):
        x = f32(text)
        reference = cos_unbounded(Fraction(float(x)), Fraction(1, 10**12))
        assert abs(Fraction(float(cos_code_in_c(x, EPS))) - reference) <= Fraction(1, 10**5)


def test_moderate_argument_explodes():
    assert abs(float(cos_code_in_c(f32(29.0), EPS))) > 1e3


def test_scan_row_count_inclusive():
    rows = scan_table(f32(0), f32("0.1"), f32("0.05"), EPS)
    assert len(rows) == 3
    assert [x for x, _ in rows] == [f32(0), f32("0.05"), f32(f32("0.05") + f32("0.05"))]


def test_scan_is_deterministic():
    first = scan_table(f32(0), f32(5), f32("0.05"), EPS)
    second = scan_table(f32(0), f32(5), f32("0.05"), EPS)
    assert [(x.hex(), v.hex()) for x, v in first] == [(x.hex(), v.hex()) for x, v in second]
    assert all(f32(x) == x and f32(v) == v for x, v in first)


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan_table(f32(0), f32(1), f32(0), EPS)
    with pytest.raises(ValueError):
        scan_table(f32(2), f32(1), f32("0.5"), EPS)
    with pytest.raises(NonPositiveEps):
        cos_code_in_c(f32(1), f32(0))


def test_iteration_cap():
    with pytest.raises(IterationCapExceeded):
        cos_code_in_c(f32(30.0), f32("1e-30"), cap=10)


def test_iteration_cap_env_override(monkeypatch):
    monkeypatch.setenv(ITERATION_CAP_ENV, "17")
    assert iteration_cap() == 17
    monkeypatch.setenv(ITERATION_CAP_ENV, "-1")
    with pytest.raises(ValueError):
        iteration_cap()
    monkeypatch.delenv(ITERATION_CAP_ENV)
    assert iteration_cap() == 1_000_000


def test_scan_reads_the_cap_once(monkeypatch):
    reads, caps = [], []

    def counted_cap():
        reads.append(17)
        return 17

    def row(x, eps, cap=None):
        caps.append(cap)
        return cos_code_in_c(x, eps, cap)

    monkeypatch.setattr(floatrepro, "iteration_cap", counted_cap)
    monkeypatch.setattr(floatrepro, "cos_code_in_c", row)
    assert len(scan_table(f32(0), f32(1), f32("0.25"), EPS)) == 5
    assert (reads, caps) == ([17], [17] * 5)
    # a bad environment value still fails before the first row
    monkeypatch.setattr(floatrepro, "iteration_cap", iteration_cap)
    monkeypatch.setenv(ITERATION_CAP_ENV, "0")
    with pytest.raises(ValueError, match=ITERATION_CAP_ENV):
        scan_table(f32(0), f32(1), f32("0.25"), EPS)
    assert len(caps) == 5


def test_scan_stops_when_a_step_leaves_x_unchanged():
    # in binary32, 1 + 1e-8 rounds back to 1
    with pytest.raises(ValueError, match="unchanged"):
        scan_table(f32(1), f32(2), f32("1e-8"), EPS)
    # 3e-8 is more than half an ulp below 1 and less than half an ulp at 1:
    # x climbs 1 - 4*2^-24, ..., 1 - 2^-24, 1 and then stops moving
    with pytest.raises(ValueError, match="x = 1.0 unchanged"):
        scan_table(f32(1 - 4 * 2.0**-24), f32(2), f32("3e-8"), EPS)


def test_scan_stops_at_its_row_budget(monkeypatch):
    # 0, 0.25, ..., 1 is five rows: a budget of five holds them, four does not
    monkeypatch.setattr(floatrepro, "SCAN_ROW_BUDGET", 5)
    assert len(scan_table(f32(0), f32(1), f32("0.25"), EPS)) == 5
    monkeypatch.setattr(floatrepro, "SCAN_ROW_BUDGET", 4)
    with pytest.raises(ValueError, match="budget of 4 rows"):
        scan_table(f32(0), f32(1), f32("0.25"), EPS)


def test_scan_budget_ends_a_fine_scan_early():
    # about 2*10**7 rows without the budget; it stops at 10**5, near x = 0.1
    with pytest.raises(ValueError, match="budget of 100000 rows"):
        scan_table(f32(0), f32(30), f32("1e-6"), EPS)
