"""Seeded verification sweeps: trig identities, fix-point bounds, gap tracing.

Each suite draws reproducible samples from `random.Random(seed)`, runs the
checks, and returns a report with pass/fail counts instead of raising, so a
single bad sample cannot hide the rest. The seed is part of the report and
of every failure label.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import fixtrig, oracle
from .errors import VerificationFailure
from .fixpoint import FixFormat, FixNum

GRID_FORMATS = ("1/256:[-8,64]", "1/65536:[-8,64]", "1/1000000:[-8,64]")


class SuiteReport:
    def __init__(self, suite: str, seed: int, samples: int) -> None:
        self.suite, self.seed, self.samples = suite, seed, samples
        self.checks = 0
        self.failures: list[str] = []

    def ok(self) -> bool:
        return not self.failures

    def add(self, passed: bool, label: str) -> None:
        self.checks += 1
        if not passed:
            self.failures.append(label)

    def summary(self) -> str:
        status = "PASS" if self.ok() else "FAIL"
        return (f"{status} suite={self.suite} seed={self.seed} "
                f"samples={self.samples} checks={self.checks} "
                f"failures={len(self.failures)}")


def _random_unit_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-1000, 1000), 1000)


def _random_eps(rng: random.Random) -> Fraction:
    return Fraction(1, 10 ** rng.choice((3, 4, 5, 6)))


def identities(samples: int = 100, seed: int = 0) -> SuiteReport:
    """Pythagorean, addition, double-angle, periodicity, squared half-angle,
    parity, and oracle self-consistency, each at its analytic tolerance.

    The periodicity check shifts by twice the series pi value computed at
    accuracy 1/100; finer pi accuracy would square the size of every partial
    sum's denominator for no extra assertion strength, since the tolerance
    carries the 2*(pi accuracy) term either way.
    """
    report = SuiteReport("identities", seed, samples)
    rng = random.Random(seed)
    eps_pi = Fraction(1, 100)
    two_pi = 2 * oracle.pi_leibniz(eps_pi).value
    for _ in range(samples):
        x = _random_unit_rational(rng)
        y = _random_unit_rational(rng)
        eps = _random_eps(rng)
        tag = f"x={x} y={y} eps={eps} seed={seed}"

        c = oracle.cos_zerone(x, eps).value
        s = oracle.sin_zerone(x, eps).value
        report.add(abs(c * c + s * s - 1) <= 2 * eps + 2 * eps * eps,
                   f"pythagorean {tag}")

        cu_x = oracle.cos_unbounded(x, eps)
        su_x = oracle.sin_unbounded(x, eps)
        cu_y = oracle.cos_unbounded(y, eps)
        su_y = oracle.sin_unbounded(y, eps)
        cu_sum = oracle.cos_unbounded(x + y, eps)
        report.add(abs(cu_sum - (cu_x * cu_y - su_x * su_y)) <= 5 * eps,
                   f"addition {tag}")

        cu_double = oracle.cos_unbounded(2 * x, eps)
        report.add(abs(cu_double - (2 * cu_x * cu_x - 1)) <= 6 * eps,
                   f"double-angle {tag}")

        cu_shifted = oracle.cos_unbounded(x + two_pi, eps)
        report.add(abs(cu_shifted - cu_x) <= 2 * eps + 2 * eps_pi,
                   f"periodicity {tag}")

        cu_half = oracle.cos_unbounded(x / 2, eps)
        report.add(abs(cu_half * cu_half - (1 + cu_x) / 2) <= 3 * eps,
                   f"half-angle-squared {tag}")

        report.add(oracle.cos_unbounded(-x, eps) == cu_x, f"cos parity {tag}")
        report.add(oracle.sin_unbounded(-x, eps) == -su_x, f"sin parity {tag}")

        ct = oracle.cos_taylor(x, eps).value
        report.add(abs(ct - oracle.cos_unbounded(x, eps / 100)) <= eps + eps / 100,
                   f"self-consistency {tag}")
    return report


def _grid_eps_values(fmt: FixFormat) -> list[FixNum]:
    values = [fmt.exact(Fraction(1, 4)), fmt.exact(Fraction(1, 16))]
    near = fmt.from_rat(Fraction(1, 1000))
    if near.m == 0:
        near = FixNum(1, fmt)
    values.append(near)
    return values


def _minimal_count(eps: Fraction, odd: bool) -> int:
    # brute-force scan, independent of the library's own counters
    n = 1
    while math.factorial(2 * n + (1 if odd else 0)) * eps < 1:
        n += 1
    return n


def _grid_runs(report: SuiteReport, runners, samples: int, seed: int):
    """Walk formats x grid eps x drawn x x (cos, sin) with runners = (cos, sin).

    Each run counts as one check, its own verdict: it fails if the run raises
    VerificationFailure. Yields (fmt, eps_r, odd, tag, result) for each run
    that returns. The xs of each (format, eps) are drawn before any of its runs.
    """
    rng = random.Random(seed)
    for fmt_text in GRID_FORMATS:
        fmt = FixFormat.parse(fmt_text)
        for eps in _grid_eps_values(fmt):
            eps_r = eps.to_rat()
            xs = [FixNum(rng.randint(-fmt.k, fmt.k), fmt) for _ in range(samples)]
            for x in xs:
                for odd, runner in zip((False, True), runners):
                    kind = "sin" if odd else "cos"
                    tag = f"{kind} fmt={fmt} x={x.to_rat()} eps={eps_r} seed={seed}"
                    try:
                        result = runner(x, eps)
                    except VerificationFailure as exc:
                        report.add(False, f"{tag}: {exc}")
                        continue
                    report.add(True, tag)
                    yield fmt, eps_r, odd, tag, result


def bounds(samples: int = 50, seed: int = 0) -> SuiteReport:
    """Fix-point runs, each checking every term gap and its closing error caps,
    and a brute-force check of their minimal term counts over the format grid."""
    report = SuiteReport("bounds", seed, samples)
    runners = (fixtrig.cos_fixpoint, fixtrig.sin_fixpoint)
    for _, eps_r, odd, tag, res in _grid_runs(report, runners, samples, seed):
        report.add(res.n == _minimal_count(eps_r, odd), f"minimal-count {tag}")
    return report


def appendix(samples: int = 50, seed: int = 0) -> SuiteReport:
    """Paired traces over the format grid; a run raises on any gap-bound
    failure, so a clean run means every per-iteration inequality held.
    gap-cap re-checks on its own the cap that those inequalities imply."""
    report = SuiteReport("appendix", seed, samples)
    runners = (fixtrig.paired_trace_cos, fixtrig.paired_trace_sin)
    for fmt, _, _, tag, trace in _grid_runs(report, runners, samples, seed):
        # |delta| <= (3/2)*step/(1-step) = 3/(2(k-1)), cross-multiplied
        gaps = (r.delta.as_integer_ratio() for r in trace.records)
        report.add(all(2 * (fmt.k - 1) * abs(n) <= 3 * d for n, d in gaps), f"gap-cap {tag}")
    return report


SUITES = {
    "identities": identities,
    "bounds": bounds,
    "appendix": appendix,
}
