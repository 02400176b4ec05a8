"""Acceptance gate: every headline requirement, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from trigcheck import (
    FixNum,
    cos_taylor,
    cos_unbounded,
    cos_zerone,
    f32,
    pi_leibniz,
    scan_table,
    sin_taylor,
    sin_unbounded,
    sin_zerone,
    to_decimal,
)
from trigcheck import verify
from trigcheck.errors import RangeOverflow
from trigcheck.fixpoint import FixFormat

SEED = 1789


def in_range(fmt: FixFormat, value: Fraction) -> bool:
    return fmt.inf <= value <= fmt.sup


def _report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS ({message})")


def test_criterion_1_pi_convergence(pi_ref):
    start = time.monotonic()
    for exponent in (1, 2, 3, 4):
        eps = Fraction(1, 10**exponent)
        result = pi_leibniz(eps)
        assert abs(result.value - pi_ref) <= eps, f"missed tolerance at eps={eps}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"pi runs took {elapsed:.2f}s, budget is 1s"
    _report(1, f"four tolerances down to 1e-4 in {elapsed:.2f}s")


def test_criterion_2_pi_iteration_count_law():
    rng = random.Random(SEED)
    for _ in range(50):
        eps = Fraction(rng.randint(1, 999), 1000)
        expected = math.ceil(Fraction(2) / eps - Fraction(3, 2))
        assert pi_leibniz(eps).iterations == expected
    _report(2, "50 random eps, exact equality with ceil(2/eps - 3/2)")


def test_criterion_3_exact_oracle_contracts():
    start = time.monotonic()
    rng = random.Random(SEED + 1)
    for _ in range(200):
        x = Fraction(rng.randint(-1000, 1000), 1000)
        scale = 10 ** rng.randint(1, 4)
        eps = Fraction(rng.randint(1, scale - 1), scale)
        slack = eps / 1000
        ref_cos = cos_unbounded(x, slack)
        ref_sin = sin_unbounded(x, slack)
        assert abs(cos_taylor(x, eps).value - ref_cos) <= eps + slack
        assert abs(cos_zerone(x, eps).value - ref_cos) <= eps + slack
        assert abs(sin_taylor(x, eps).value - ref_sin) <= eps + slack
        assert abs(sin_zerone(x, eps).value - ref_sin) <= eps + slack
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s, budget is 10s"
    _report(3, f"200 samples, 4 algorithms, invariants clean, {elapsed:.2f}s")


def test_criterion_4_identity_suite():
    report = verify.identities(samples=100, seed=SEED + 2)
    assert report.ok(), report.failures[:5]
    _report(4, f"{report.checks} identity checks, zero violations")


def test_criterion_5_fixpoint_headline_bound():
    start = time.monotonic()
    report = verify.bounds(samples=50, seed=SEED + 3)
    assert report.ok(), report.failures[:5]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"bound sweep took {elapsed:.2f}s, budget is 30s"
    _report(5, f"{report.checks} bound checks over the format grid, {elapsed:.2f}s")


def test_criterion_6_paired_trace_chain():
    report = verify.appendix(samples=50, seed=SEED + 4)
    assert report.ok(), report.failures[:5]
    _report(6, f"{report.checks} paired-trace checks, zero gap-bound violations")


def test_criterion_7_float_divergence():
    start = time.monotonic()
    rows = scan_table(f32(0), f32(30), f32("0.05"), f32("1e-6"))
    values = [(float(x), float(v)) for x, v in rows]

    for (got_x, got_v), want in zip(values[:3], (1.000000, 0.9987502, 0.9950042)):
        assert abs(got_v - want) / want <= 1e-3, f"row x={got_x}"

    assert any(v > 1 for x, v in values if 18.0 <= x <= 20.0)
    assert any(abs(v) > 1e3 for x, v in values if 28.5 <= x <= 30.0)
    assert any(v < -1e3 for x, v in values if 29.5 <= x <= 30.0)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s, budget is 5s"
    _report(7, f"{len(values)} rows, small-x match and blow-up reproduced, {elapsed:.2f}s")


def test_criterion_8_golden_cos_50():
    start = time.monotonic()
    value = cos_unbounded(Fraction(50), Fraction(1, 10**8))
    assert to_decimal(value, 10) == "0.9649660286"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(8, f"cos 50 to ten digits in {elapsed:.2f}s")


def test_criterion_9_fixpoint_axioms():
    rng = random.Random(SEED + 5)
    checks = 0
    for fmt_text in verify.GRID_FORMATS:
        fmt = FixFormat.parse(fmt_text)
        half_step = fmt.step / 2
        for _ in range(10_000):
            a = FixNum(rng.randint(fmt.m_inf, fmt.m_sup), fmt)
            b = FixNum(rng.randint(fmt.m_inf, fmt.m_sup), fmt)
            ar, br = a.to_rat(), b.to_rat()

            for op, exact in (((lambda: a + b), ar + br), ((lambda: a - b), ar - br)):
                if in_range(fmt, exact):
                    assert op().to_rat() == exact
                else:
                    try:
                        op()
                    except RangeOverflow:
                        pass
                    else:
                        raise AssertionError("missing overflow")
                checks += 1

            exact = ar * br
            if in_range(fmt, exact):
                got = (a * b).to_rat()
                assert abs(got - exact) <= half_step
                if (exact * fmt.k).denominator == 1:
                    assert got == exact
            checks += 1

            if b.m != 0:
                exact = ar / br
                if in_range(fmt, exact):
                    got = (a / b).to_rat()
                    assert abs(got - exact) <= half_step
                    if (exact * fmt.k).denominator == 1:
                        assert got == exact
                checks += 1

        # constructed ties: product exactly halfway between grid points
        assert (FixNum(1, fmt) * FixNum(fmt.k // 2, fmt)).m == 0
        assert (FixNum(3, fmt) * FixNum(fmt.k // 2, fmt)).m == 2
        assert (FixNum(-3, fmt) * FixNum(fmt.k // 2, fmt)).m == -2
        assert (FixNum(1, fmt) / fmt.from_int(2)).m == 0

        # boundary overflow
        for op in ((lambda: FixNum(fmt.m_sup, fmt) + FixNum(1, fmt)),
                   (lambda: FixNum(fmt.m_inf, fmt) - FixNum(1, fmt))):
            try:
                op()
            except RangeOverflow:
                pass
            else:
                raise AssertionError("missing boundary overflow")
        checks += 6
    _report(9, f"{checks} axiom checks across {len(verify.GRID_FORMATS)} formats")
