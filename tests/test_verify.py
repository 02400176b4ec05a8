"""The bounds suite reuses each result's checked reference value."""

from __future__ import annotations

from trigcheck import fixtrig, oracle, verify


def test_bounds_reuses_the_checked_reference(monkeypatch):
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
