"""The bounds suite computes no reference of its own, its runs check every term
gap, and each grid run counts as one check, its own verdict, in both grid suites."""

from __future__ import annotations

from fractions import Fraction

import pytest
from test_fixtrig import _perturbed_heads

from trigcheck import fixtrig, oracle, verify
from trigcheck.errors import InvariantViolation


def test_bounds_computes_no_reference_of_its_own(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(x, eps):
            calls.append(fn.__name__)
            return fn(x, eps)
        return wrapper

    def forbidden(x, eps):
        raise AssertionError("bounds recomputed the reference")

    monkeypatch.setattr(fixtrig, "cos_unbounded", counting(fixtrig.cos_unbounded))
    monkeypatch.setattr(fixtrig, "sin_unbounded", counting(fixtrig.sin_unbounded))
    monkeypatch.setattr(oracle, "cos_unbounded", forbidden)
    monkeypatch.setattr(oracle, "sin_unbounded", forbidden)
    report = verify.bounds(samples=2, seed=5)
    assert report.ok(), report.failures[:5]
    assert report.checks == 2 * 36
    # one reference per fix-point evaluation: 3 formats x 3 eps x 2 samples x cos/sin
    assert len(calls) == 36


@pytest.mark.parametrize("suite, names", [
    (verify.bounds, ("cos_fixpoint", "sin_fixpoint")),
    (verify.appendix, ("paired_trace_cos", "paired_trace_sin")),
], ids=["bounds", "appendix"])
def test_a_run_that_raises_is_one_failed_check(suite, names, monkeypatch):
    # 3 formats x 3 eps x 4 samples x cos/sin = 72 runs; every third raises.
    # The 48 that return count one check each plus the suite's own, 96 in all.
    calls = [0]

    def every_third(fn):
        def wrapper(x, eps):
            calls[0] += 1
            if calls[0] % 3 == 0:
                raise InvariantViolation(f"injected at call {calls[0]}")
            return fn(x, eps)
        return wrapper

    for name in names:
        monkeypatch.setattr(fixtrig, name, every_third(getattr(fixtrig, name)))
    report = suite(samples=4, seed=0)
    assert (report.checks, len(report.failures)) == (120, 24)
    assert report.failures[0] == (
        "cos fmt=1/256:[-8,64] x=87/128 eps=1/4 seed=0: injected at call 3")
    assert report.failures[-1] == ("sin fmt=1/1000000:[-8,64] x=-869391/1000000 eps=1/1000 "
                                   "seed=0: injected at call 72")
    assert all(label.endswith(f"injected at call {3 * (i + 1)}")
               for i, label in enumerate(report.failures))


@pytest.mark.parametrize("suite", [verify.bounds, verify.appendix])
def test_a_wrong_reference_fails_every_cosine_run_on_headline(suite, monkeypatch):
    # cos runs raise headline (27 failed checks); the 27 sin runs count two each
    monkeypatch.setattr(fixtrig, "cos_unbounded",
                        lambda x, eps: oracle.cos_unbounded(x, eps) + Fraction(1, 3))
    report = suite(samples=3, seed=0)
    assert (report.checks, len(report.failures)) == (81, 27)
    assert report.failures[0] == (
        "cos fmt=1/256:[-8,64] x=69/128 eps=1/4 seed=0: bound 'headline' violated: "
        "cos_fixpoint: observed 0.336054713921 > cap 0.262014705882 for x=69/128 eps=1/4")
    assert all(label.startswith("cos fmt=") and ": bound 'headline' violated: " in label
               for label in report.failures)


def test_bounds_runs_check_every_gap(monkeypatch):
    # head 1's exact term moved by 1/8: the 15 runs with n >= 2 fail first-gap, though
    # bounds runs keep no trace; the 3 sin runs at eps = 1/4 stop at n = 1, before any gap
    monkeypatch.setattr(fixtrig, "_scaled_heads", _perturbed_heads(1, Fraction(1, 8)))
    report = verify.bounds(samples=1, seed=0)
    assert (report.checks, len(report.failures)) == (21, 15)
    assert all(": bound 'first-gap' violated at iteration 1: " in label
               for label in report.failures)
