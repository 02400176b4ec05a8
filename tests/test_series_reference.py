"""The series loops against the reference copies in `reference_series`.

Values, iteration counts, exception types and exception messages must all
match, on hypothesis draws and on anchor inputs: x = 0, +-1, +-3, eps equal
to a term or to a stop-counter threshold (the `<` against `<=` ties), and
eps >= 1 for the unbounded generators, where the old loop could stop with an
error above eps, so there they are held to `math.cos`/`math.sin` within eps
instead; for `pi_leibniz`, eps >= 4, eps <= 0
and eps ending the loop near head 64. The integer recurrence under the
unbounded generators and the tracer's exact twin is also drawn at the
benchmark's ranges, |x| <= 50 over denominators up to 2^40, where its
unreduced numerators grow largest, and the checked loops at the
benchmark's depth, eps down to 1e-300 at 1/2 <= |x| <= 1. The fix-point
loop, whose recurrence is now a generator of heads, is held to the traced
run of its interleaved copy in `reference_fixtrig`: records, results,
exceptions and overflow iterations, on clean runs and under faults that fire
its checks. An untraced run, which checks every gap too, must give the same
result or exception and keep no records.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fixtrig as ref_fix
import reference_series as ref
from test_fixtrig import _perturbed_heads, _shifted_half_step
from trigcheck import FixFormat, FixNum, fixtrig, oracle
from trigcheck.errors import VerificationFailure
from trigcheck.fixtrig import FixAlgoResult


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:  # the precondition errors
        return type(exc), str(exc)


PAIRS = {
    "cos_taylor": (oracle.cos_taylor, ref.cos_taylor),
    "sin_taylor": (oracle.sin_taylor, ref.sin_taylor),
    "cos_zerone": (oracle.cos_zerone, ref.cos_zerone),
    "sin_zerone": (oracle.sin_zerone, ref.sin_zerone),
    "cos_unbounded": (oracle.cos_unbounded, ref.cos_unbounded),
    "sin_unbounded": (oracle.sin_unbounded, ref.sin_unbounded),
}

ANCHOR_X = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(-3)]
ANCHOR_EPS = [
    Fraction(1, 2),     # cos x=1: term_1 = 1/2 and (2)! * eps = 1
    Fraction(1, 6),     # sin x=1: term_1 = 1/6 and (3)! * eps = 1
    Fraction(1, 24),    # cos x=1: term_2
    Fraction(1, 120),   # sin x=1: term_2
    Fraction(9, 2),     # cos x=3: term_1
    Fraction(81, 80),   # cos x=3: term_3
    Fraction(27, 8),    # cos x=3: term_2
    Fraction(1, 10**6),
    Fraction(1, 10**300),  # past head 64, where the accumulator clause once stopped
    Fraction(1),        # the unbounded loops stop before any term
    Fraction(3),        # x=3: sin's term_0
    Fraction(7, 3),
    Fraction(0),
    Fraction(-1, 2),
]


UNBOUNDED_TRUTH = {"cos_unbounded": math.cos, "sin_unbounded": math.sin}
FLOAT_SLACK = Fraction(1, 10**12)  # covers float(x) and math.cos/sin for |x| <= 50


def assert_same(name, x, eps):
    new, old = PAIRS[name]
    if name in UNBOUNDED_TRUTH and eps >= 1:
        # the old loop could stop there with an error above eps; hold the value to cos/sin
        truth = Fraction(UNBOUNDED_TRUTH[name](float(x)))
        assert abs(new(x, eps) - truth) <= eps + FLOAT_SLACK, (name, x, eps)
        return
    assert outcome(new, x, eps) == outcome(old, x, eps), (name, x, eps)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_anchor_inputs(name):
    for x in ANCHOR_X:
        for eps in ANCHOR_EPS:
            assert_same(name, x, eps)


wide_rationals = st.builds(Fraction, st.integers(-8000, 8000), st.integers(1000, 3000))
unit_rationals = st.builds(Fraction, st.integers(-1100, 1100), st.integers(1000, 1100))
small_eps = st.builds(Fraction, st.integers(-2, 50), st.integers(1, 10**40))


@settings(max_examples=150, deadline=None)
@given(x=unit_rationals, eps=small_eps, name=st.sampled_from(sorted(PAIRS)))
def test_unit_arguments(x, eps, name):
    assert_same(name, x, eps)


# the benchmark's bounded calls: 1/2 <= |x| <= 1 and eps down to 1e-300, where
# the checked loops run about 85 heads over numerators of hundreds of digits
deep_unit_rationals = st.integers(1000, 1100).flatmap(lambda q: st.builds(
    Fraction, st.integers((q + 1) // 2, q) | st.integers(-q, -((q + 1) // 2)), st.just(q)))


@settings(max_examples=40, deadline=None)
@given(x=deep_unit_rationals, k=st.integers(41, 300),
       name=st.sampled_from(["cos_taylor", "sin_taylor", "cos_zerone", "sin_zerone"]))
def test_checked_loops_at_the_benchmark_depth(x, k, name):
    assert_same(name, x, Fraction(1, 10**k))


@settings(max_examples=150, deadline=None)
@given(x=wide_rationals, eps=st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**20)),
       name=st.sampled_from(["cos_taylor", "sin_taylor", "cos_unbounded", "sin_unbounded"]))
def test_wider_arguments(x, eps, name):
    assert_same(name, x, eps)


@settings(max_examples=100, deadline=None)
@given(eps=small_eps)
def test_term_counts(eps):
    assert outcome(fixtrig.cos_term_count, eps) == outcome(ref.cos_term_count, eps)
    assert outcome(fixtrig.sin_term_count, eps) == outcome(ref.sin_term_count, eps)


# eps = 4/(2m+1) makes head m the last one, so these end on either side of head 64,
# the last head that checks the partial-sum clause
PI_ANCHOR_EPS = [Fraction(4, 2 * m + 1) + d for m in (62, 63, 64, 65, 66)
                 for d in (0, Fraction(1, 10**9), -Fraction(1, 10**9))]
PI_ANCHOR_EPS += [Fraction(4), Fraction(9, 2), Fraction(100), Fraction(7, 2), Fraction(1),
                  Fraction(0), Fraction(-1, 2), Fraction(-4)]


def test_pi_leibniz_anchors():
    for eps in PI_ANCHOR_EPS:
        assert outcome(oracle.pi_leibniz, eps) == outcome(ref.pi_leibniz, eps), eps


@settings(max_examples=100, deadline=None)
@given(eps=st.builds(Fraction, st.integers(-3, 60), st.integers(1, 1000)))
def test_pi_leibniz(eps):
    assert outcome(oracle.pi_leibniz, eps) == outcome(ref.pi_leibniz, eps)


FORMATS = [FixFormat.parse("1/256:[-8,64]"), FixFormat.parse("1/65536:[-8,1024]")]


@settings(max_examples=120, deadline=None)
@given(fmt=st.sampled_from(FORMATS), xm=st.integers(-65536, 65536),
       em=st.integers(1, 255), odd=st.booleans())
def test_tracer_exact_twin(fmt, xm, em, odd):
    x = FixNum(xm * fmt.k // 65536, fmt)
    eps = FixNum(em * fmt.k // 256, fmt)
    tracer = fixtrig.paired_trace_sin if odd else fixtrig.paired_trace_cos
    runner = fixtrig.sin_fixpoint if odd else fixtrig.cos_fixpoint
    trace = tracer(x, eps)
    exact = [(r.k, r.tc_exact, r.cs_exact, r.ep_exact, r.tc_half)
             for r in trace.records]
    assert exact == ref.exact_twin(x.to_rat(), eps.to_rat(), odd)
    assert runner(x, eps) == trace.result


@pytest.mark.parametrize("odd", [False, True])
def test_tracer_exact_twin_anchors(odd):
    fmt = FixFormat.parse("1/40320:[-8,1024]")  # 8! puts every counter tie on the grid
    tracer = fixtrig.paired_trace_sin if odd else fixtrig.paired_trace_cos
    for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)):
        for eps in (Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 120),
                    Fraction(1, 40320)):
            trace = tracer(fmt.exact(x), fmt.exact(eps))
            exact = [(r.k, r.tc_exact, r.cs_exact, r.ep_exact, r.tc_half)
                     for r in trace.records]
            assert exact == ref.exact_twin(x, eps, odd)


# the benchmark's grids and unbounded calls: |x| <= 50 over these denominators
WORKLOAD_DENOMINATORS = (1000, 65536, 2**40)
WORKLOAD_EPS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 10**8)]
workload_x = st.sampled_from(WORKLOAD_DENOMINATORS).flatmap(
    lambda q: st.builds(Fraction, st.integers(-50 * q, 50 * q), st.just(q)))
workload_eps = st.one_of(st.sampled_from(WORKLOAD_EPS),
                         st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**40)))


def test_unbounded_anchors_at_the_workload_ranges():
    # x = 50 at eps = 1e-8 is the `golden` subcommand's input
    xs = [Fraction(50), Fraction(-50)] + [sign * Fraction(50 * q - 1, q)
                                          for q in WORKLOAD_DENOMINATORS for sign in (1, -1)]
    for name in ("cos_unbounded", "sin_unbounded"):
        for x in xs:
            for eps in WORKLOAD_EPS:
                assert_same(name, x, eps)


@settings(max_examples=150, deadline=None)
@given(x=workload_x, eps=workload_eps, name=st.sampled_from(["cos_unbounded", "sin_unbounded"]))
def test_unbounded_at_the_workload_ranges(x, eps, name):
    assert_same(name, x, eps)


@settings(max_examples=60, deadline=None)
@given(x=workload_x, odd=st.booleans(), n=st.integers(1, 40))
def test_heads_view_at_the_workload_ranges(x, odd, n):
    # the reference twin runs while (2k+s)! * eps < 1, so this eps gives it heads 1 .. n-1
    eps = Fraction(1, math.factorial(2 * n + (1 if odd else 0)))
    view = [(k, sign * Fraction(t, d), Fraction(a, d), sign * fact * eps)
            for k, sign, t, a, d, fact in islice(oracle._scaled_heads(x, odd), n - 1)]
    assert view == [head[:4] for head in ref.exact_twin(x, eps, odd)]


# the benchmark's fixpoint_sweep ladder, a grid holding every counter tie, and
# an inf just below 0, where the first term -x^2/2 leaves the range
FIX_FORMATS = [FixFormat.parse(text) for text in (
    "1/256:[-8,64]", "1/65536:[-8,64]", "1/1000000:[-8,64]", "1/65536:[-8,1024]",
    "1/1099511627776:[-8,1024]", "1/40320:[-8,1024]", "1/256:[-1/256,64]")]
FIX_RUNS = {(False, False): fixtrig.cos_fixpoint, (True, False): fixtrig.sin_fixpoint,
            (False, True): fixtrig.paired_trace_cos, (True, True): fixtrig.paired_trace_sin}


def fix_outcome(run, *args):
    """(records by as_dict(), result), or the exception's type, message and iteration."""
    try:
        out = run(*args)
    except (ArithmeticError, ValueError, VerificationFailure) as exc:
        return type(exc), str(exc), getattr(exc, "iteration", None)
    if isinstance(out, FixAlgoResult):
        return [], out
    return [rec.as_dict() for rec in out.records], out.result


def assert_same_fix_run(x, eps, odd):
    # every run checks what the copy's traced run checks; an untraced one keeps no records
    expected = fix_outcome(ref_fix.run, x, eps, odd, True)
    assert fix_outcome(FIX_RUNS[odd, True], x, eps) == expected, (x, eps, odd)
    if len(expected) == 2:
        expected = [], expected[1]
    assert fix_outcome(FIX_RUNS[odd, False], x, eps) == expected, (x, eps, odd)


def shifted_reference(by: Fraction):
    """The two unbounded references, each moved by `by`."""
    return {name: (lambda fn: lambda x, eps: fn(x, eps) + by)(getattr(oracle, name))
            for name in ("cos_unbounded", "sin_unbounded")}


@pytest.mark.parametrize("odd", [False, True])
def test_fix_loop_anchors(odd):
    fmt = FIX_FORMATS[3]
    x, eps = fmt.exact(Fraction(3, 4)), fmt.exact(Fraction(1, 4096))
    tight = FIX_FORMATS[-1]
    assert_same_fix_run(tight.exact(Fraction(1, 2)), tight.exact(Fraction(1, 4)), odd)
    fac = 4 if odd else 3  # the first factor of iteration 1's half step
    assert_same_fix_run(_shifted_half_step(x, fac, 30 * 65536), eps, odd)  # overflows past head 1
    assert_same_fix_run(_shifted_half_step(x, fac, 4), eps, odd)
    for at in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            for module in (fixtrig, ref_fix):
                mp.setattr(module, "_scaled_heads", _perturbed_heads(at, fmt.step))
            assert_same_fix_run(x, eps, odd)
    for units in range(-12, 13):  # eps/8 steps: headline, then closing-chain only, then none
        with pytest.MonkeyPatch.context() as mp:
            for module in (fixtrig, ref_fix):
                for name, fn in shifted_reference(units * eps.to_rat() / 8).items():
                    mp.setattr(module, name, fn)
            assert_same_fix_run(x, eps, odd)


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(FIX_FORMATS), odd=st.booleans(),
       fault=st.sampled_from([None, "heads", "reference", "division"]), data=st.data())
def test_fix_loop_matches_the_interleaved_copy(fmt, odd, fault, data):
    # x mostly in [-1, 1], at times anywhere in range; eps in (0, 1), often fine
    # to 2^-30, at times 0 or 1
    x = FixNum(data.draw(st.integers(max(-fmt.k, fmt.m_inf), fmt.k)
                         | st.integers(fmt.m_inf, fmt.m_sup)), fmt)
    eps = FixNum(data.draw(st.integers(1, fmt.k - 1) | st.sampled_from([0, fmt.k])
                           | st.integers(1, 30).map(lambda s: max(1, fmt.k >> s))), fmt)
    with pytest.MonkeyPatch.context() as mp:
        if fault == "heads":  # an exact term off by a multiple of half a step
            at, by = data.draw(st.integers(1, 5)), data.draw(st.integers(-4, 4)) * fmt.step / 2
            for module in (fixtrig, ref_fix):
                mp.setattr(module, "_scaled_heads", _perturbed_heads(at, by))
        if fault == "reference":  # a reference off by a multiple of eps/4
            by = data.draw(st.integers(-8, 8)) * eps.to_rat() / 4
            for module in (fixtrig, ref_fix):
                for name, fn in shifted_reference(by).items():
                    mp.setattr(module, name, fn)
        if fault == "division":  # one factor x/fac off by a few steps, or by up to 40
            units = data.draw(st.integers(-6, 6) | st.integers(-40, 40).map(lambda u: u * fmt.k))
            x = _shifted_half_step(x, data.draw(st.integers(2, 9)), units)
        assert_same_fix_run(x, eps, odd)
