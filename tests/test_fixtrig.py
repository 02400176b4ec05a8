"""Fix-point trig against hand traces, bound formulas, and the paired tracer."""

from __future__ import annotations

import copy
import csv
import io
import pickle
from fractions import Fraction

import pytest
import reference_fixtrig
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcheck import (
    FixFormat,
    FixNum,
    cos_fixpoint,
    cos_term_count,
    cos_unbounded,
    error_bound,
    paired_trace_cos,
    paired_trace_sin,
    sin_fixpoint,
    sin_term_count,
    sin_unbounded,
)
from trigcheck import fixtrig, oracle
from trigcheck.errors import (
    ArgOutOfRange,
    BoundViolation,
    EpsOutOfRange,
    FormatMismatch,
    InvariantViolation,
    PreconditionViolation,
    RangeOverflow,
    VerificationFailure,
)
from trigcheck.fixtrig import TRACE_CSV_HEADER, trace_to_csv, trace_to_json_obj
from trigcheck.verify import GRID_FORMATS

K256 = FixFormat.parse("1/256:[-8,64]")
K65536 = FixFormat.parse("1/65536:[-8,1024]")


@pytest.mark.parametrize("n,delta,eps,expected", [
    (2, Fraction(1, 256), Fraction(1, 4), Fraction(1, 4) + Fraction(3, 255)),
    (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4) + Fraction(3, 2)),
    (5, Fraction(1, 1000), Fraction(1, 100), Fraction(1, 100) + Fraction(15, 1998)),
])
def test_error_bound_examples(n, delta, eps, expected):
    assert error_bound(n, delta, eps) == expected


def test_error_bound_domain():
    with pytest.raises(ValueError):
        error_bound(0, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        error_bound(1, Fraction(1), Fraction(1, 4))
    with pytest.raises(ValueError):
        error_bound(1, Fraction(1, 2), Fraction(0))


def _outcome(fn, *args):
    """The value and its type, or the exception's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


# a number as each input form error_bound converts: Fraction, int, float and str,
# inside (0, 1), outside it, zero and negative, and text that is no number
_INPUTS = st.one_of(
    st.fractions(), st.fractions(0, 1), st.integers(-3, 3),
    st.floats(), st.floats(0, 1),
    st.fractions().map(str), st.floats().map(str),
    st.sampled_from(["1/0", "abc", " 3/4 ", "0.001", "-1/4"]))


@settings(max_examples=500)
@given(st.integers(-3, 50), _INPUTS, _INPUTS)
def test_error_bound_matches_the_fraction_body(n, delta, eps):
    assert _outcome(error_bound, n, delta, eps) == _outcome(
        reference_fixtrig.error_bound, n, delta, eps)


@pytest.mark.parametrize("eps,expected", [
    (Fraction(1, 2), 1),
    (Fraction(1, 4), 2),
    (Fraction(1, 1000), 4),
])
def test_cos_term_count(eps, expected):
    assert cos_term_count(eps) == expected


@pytest.mark.parametrize("eps,expected", [
    (Fraction(1, 2), 1),
    (Fraction(1, 8), 2),
    (Fraction(1, 1000), 3),
])
def test_sin_term_count(eps, expected):
    assert sin_term_count(eps) == expected


def test_cos_fixpoint_hand_trace():
    result = cos_fixpoint(K256.exact(Fraction(1, 2)), K256.exact(Fraction(1, 4)))
    assert result.value.m == 224
    assert result.n == 2
    assert result.a_priori_bound == Fraction(1, 4) + Fraction(3, 255)
    reference = cos_unbounded(Fraction(1, 2), Fraction(1, 4000))
    assert abs(result.value.to_rat() - reference) <= result.a_priori_bound


def test_cos_fixpoint_at_zero():
    result = cos_fixpoint(K256.exact(0), K256.exact(Fraction(1, 4)))
    assert result.value.to_rat() == 1
    assert result.n == 2


def test_cos_fixpoint_boundary_counter():
    # 2! * (1/2) = 1 stops the loop before the first body execution
    result = cos_fixpoint(K256.exact(1), K256.exact(Fraction(1, 2)))
    assert result.value.to_rat() == 1
    assert result.n == 1
    assert result.a_priori_bound == Fraction(1, 2) + Fraction(3, 510)


def test_sin_fixpoint_basics():
    assert sin_fixpoint(K256.exact(0), K256.exact(Fraction(1, 4))).value.to_rat() == 0

    x = K65536.exact(Fraction(1, 2))
    eps = K65536.exact(Fraction(1, 8))
    result = sin_fixpoint(x, eps)
    assert result.n == 2
    reference = sin_unbounded(Fraction(1, 2), Fraction(1, 8000))
    assert abs(result.value.to_rat() - reference) <= result.a_priori_bound + Fraction(1, 8000)


def test_sin_fixpoint_sign_symmetry():
    eps = K65536.exact(Fraction(1, 8))
    plus = sin_fixpoint(K65536.exact(Fraction(1, 2)), eps)
    minus = sin_fixpoint(K65536.exact(Fraction(-1, 2)), eps)
    assert minus.value.to_rat() == -plus.value.to_rat()


def test_preconditions_reported_by_clause():
    x = K256.exact(Fraction(1, 2))
    with pytest.raises(EpsOutOfRange):
        cos_fixpoint(x, K256.exact(1))
    with pytest.raises(ArgOutOfRange):
        cos_fixpoint(K256.exact(2), K256.exact(Fraction(1, 4)))
    with pytest.raises(FormatMismatch):
        cos_fixpoint(x, K65536.exact(Fraction(1, 4)))
    with pytest.raises(TypeError, match="x and eps must be FixNum values"):
        cos_fixpoint(Fraction(1, 2), K256.exact(Fraction(1, 4)))

    small_sup = FixFormat(16, Fraction(-1), Fraction(1))
    with pytest.raises(PreconditionViolation) as info:
        cos_fixpoint(small_sup.exact(Fraction(1, 2)), small_sup.exact(Fraction(1, 16)))
    assert info.value.clause == "stop counter representable"

    medium_sup = FixFormat(16, Fraction(-1), Fraction(4))
    with pytest.raises(PreconditionViolation) as info:
        cos_fixpoint(medium_sup.exact(Fraction(1, 2)), medium_sup.exact(Fraction(1, 16)))
    assert info.value.clause == "sup large enough for counter scaling"

    # each input below fails two clauses; the one checked first is reported
    with pytest.raises(TypeError):
        cos_fixpoint(Fraction(1, 2), K65536.exact(1))
    with pytest.raises(FormatMismatch):
        cos_fixpoint(K256.exact(2), K65536.exact(1))
    with pytest.raises(EpsOutOfRange):
        cos_fixpoint(K256.exact(2), K256.exact(1))
    wide_inf = FixFormat(16, Fraction(-4), Fraction(2))
    with pytest.raises(ArgOutOfRange):
        cos_fixpoint(wide_inf.exact(2), wide_inf.exact(Fraction(1, 16)))


def test_range_overflow_carries_iteration():
    tight = FixFormat(256, Fraction(-1, 256), Fraction(64))
    with pytest.raises(RangeOverflow) as info:
        cos_fixpoint(tight.exact(Fraction(1, 2)), tight.exact(Fraction(1, 4)))
    assert info.value.iteration == 1


@pytest.mark.parametrize("run", [cos_fixpoint, paired_trace_cos])
def test_range_overflow_past_head_1_carries_its_iteration(run):
    # x / 3, 30 * 65536 steps high, makes the half step of iteration 1 leave the range
    x = _shifted_half_step(K65536.exact(Fraction(3, 4)), 3, 30 * 65536)
    with pytest.raises(RangeOverflow, match=r"^exact product -1089/128 leaves range$") as info:
        run(x, K65536.exact(Fraction(1, 4096)))
    assert info.value.iteration == 2


def test_paired_trace_hand_example():
    trace = paired_trace_cos(K256.exact(Fraction(1, 2)), K256.exact(Fraction(1, 4)))
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.k == 1
    assert rec.tcfp == Fraction(-1, 8)
    assert rec.tc_exact == Fraction(-1, 8)
    assert rec.delta == 0
    assert rec.delta_bound == Fraction(3, 4) * Fraction(1, 256)
    assert rec.ep_exact == Fraction(-1, 2)
    assert rec.epfp == Fraction(1, 2)
    assert trace.result.n == 2


def test_paired_trace_zero_argument_is_exact():
    trace = paired_trace_cos(K256.exact(0), K256.exact(Fraction(1, 4)))
    assert all(rec.delta == 0 for rec in trace.records)


def test_paired_trace_snapped_third():
    fmt = FixFormat.parse("1/1024:[-8,4096]")
    x = fmt.from_rat(Fraction(1, 3))
    eps = fmt.from_rat(Fraction(1, 24))
    cap = Fraction(3, 2) * fmt.step / (1 - fmt.step)
    for trace in (paired_trace_cos(x, eps), paired_trace_sin(x, eps)):
        assert trace.records
        assert all(abs(rec.delta) <= cap for rec in trace.records)
        assert len(trace.records) == trace.result.n - 1


def test_paired_trace_step_inequalities_on_longer_run():
    fmt = FixFormat.parse("1/256:[-8,64]")
    x = fmt.from_rat(Fraction(9, 10))
    eps = FixNum(1, fmt)  # smallest positive eps forces n = 3 on this grid
    trace = paired_trace_cos(x, eps)
    assert trace.result.n == 3
    assert len(trace.records) == 2
    delta = fmt.step
    q = (1 + delta) / 2
    first, second = trace.records
    assert abs(first.delta) <= Fraction(3, 4) * delta
    assert abs(second.delta) <= q * q * abs(first.delta) + (q + 1) * Fraction(3, 4) * delta
    assert first.delta_half is not None and second.delta_half is not None


def test_trace_serialization_round_trip():
    trace = paired_trace_cos(K256.exact(Fraction(1, 2)), K256.exact(Fraction(1, 4)))
    text = trace_to_csv(trace.records)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == TRACE_CSV_HEADER
    assert rows[1][0] == "1"
    assert rows[1][3] == "-1/8"

    mirror = trace_to_json_obj(trace.records)
    assert mirror[0]["tcfp"] == "-1/8"
    assert "half" in mirror[0]
    assert mirror[0]["half"]["tcfp_half"] is not None


def _csv_module_trace(records):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRACE_CSV_HEADER)
    for rec in records:
        row = rec.as_dict()
        writer.writerow([row[column] for column in TRACE_CSV_HEADER])
    return buffer.getvalue()


@settings(deadline=None)
@given(st.sampled_from(["1/65536:[-8,1024]", "1/1099511627776:[-8,1024]"]),
       st.sampled_from([paired_trace_cos, paired_trace_sin]), st.integers(1, 30), st.data())
def test_trace_csv_matches_the_csv_module(fmt_text, run, scale, data):
    fmt = FixFormat.parse(fmt_text)
    x = FixNum(data.draw(st.integers(-fmt.k, fmt.k)), fmt)                  # [-1, 1]
    eps = FixNum(data.draw(st.integers(-(-fmt.k >> scale), fmt.k - 1)), fmt)  # [2^-scale, 1)
    records = run(x, eps).records
    assert trace_to_csv(records) == _csv_module_trace(records)


def test_trace_csv_of_a_one_term_run_is_the_header():
    trace = paired_trace_cos(K65536.exact(Fraction(1, 2)), K65536.exact(Fraction(1, 2)))
    assert trace.result.n == 1
    header = "k,tc,cs,tcfp,csfp,delta,delta_bound,ep,epfp\n"
    assert trace_to_csv(trace.records) == _csv_module_trace(trace.records) == header


K2_40 = FixFormat.parse("1/1099511627776:[-8,1024]")


def _fractions_built(run, x: FixNum, eps: FixNum) -> int:
    """How many times run(x, eps) calls Fraction.__new__."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(cls)
        return new(cls, *args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting))
        run(x, eps)
    return len(calls)


@pytest.mark.parametrize("traced,untraced", [(paired_trace_cos, cos_fixpoint),
                                             (paired_trace_sin, sin_fixpoint)])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 1000), Fraction(1, 10**8),
                                 Fraction(1, 2**30)])
def test_a_trace_builds_no_fraction_for_its_records(traced, untraced, eps):
    # n runs from 1 to 7 over these eps; a record keeps the run's integers, so a
    # traced run builds as many Fractions as the untraced one, whatever n is
    x, eps = K2_40.from_rat(Fraction(3, 4)), K2_40.from_rat(eps)
    assert _fractions_built(traced, x, eps) == _fractions_built(untraced, x, eps)


def test_trace_records_hold_ints_and_build_fractions_on_read():
    trace = paired_trace_sin(K2_40.from_rat(Fraction(3, 4)), K2_40.from_rat(Fraction(1, 2**30)))
    assert len(trace.records) == 5
    for rec in trace.records:
        views = tuple(getattr(rec, name) for name in rec._fields)
        assert all(type(view) is Fraction for view in views[1:])
        for twin in (rec, pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
            assert all(type(getattr(twin, name)) is int for name in type(twin).__slots__)
            assert tuple(getattr(twin, name) for name in twin._fields) == views
            assert repr(twin) == repr(rec) and twin == rec


def test_fix_result_serialization():
    result = cos_fixpoint(K256.exact(Fraction(1, 2)), K256.exact(Fraction(1, 4)))
    payload = result.as_dict(digits=6)
    assert payload["value"] == "224/256"
    assert payload["value_exact"] == "7/8"
    assert payload["decimal"] == "0.875000"
    assert payload["n"] == 2
    assert payload["format"] == "1/256:[-8,64]"
    assert "reference" not in payload


def test_bound_grows_as_grid_coarsens():
    # same n and eps, larger step, never a smaller cap
    eps = Fraction(1, 4)
    caps = [error_bound(2, Fraction(1, k), eps) for k in (65536, 256, 16, 2)]
    assert caps == sorted(caps)

    x_r = Fraction(1, 2)
    observed = []
    for k in (65536, 256, 16):
        fmt = FixFormat(k, Fraction(-8), Fraction(64))
        observed.append(cos_fixpoint(fmt.exact(x_r), fmt.exact(eps)).a_priori_bound)
    assert observed == sorted(observed)


def _perturbed_heads(at: int, by: Fraction):
    """`oracle._scaled_heads` with the exact term t/d at head `at` moved by `by`.

    For by = A/B the head becomes (t*B + A*d)/(d*B), and its sum a/d becomes
    (a*B)/(d*B), the same value."""
    def heads(x, odd):
        for head in oracle._scaled_heads(x, odd):
            n, sign, t, a, d, fact = head
            if n == at:
                head = (n, sign, t * by.denominator + by.numerator * d,
                        a * by.denominator, d * by.denominator, fact)
            yield head
    return heads


def _gap_caps(fmt: FixFormat) -> tuple[Fraction, Fraction, Fraction]:
    """q, the first-gap cap and the gap cap of a format."""
    delta = fmt.step
    return (1 + delta) / 2, Fraction(3, 4) * delta, Fraction(3, 2) * delta / (1 - delta)


def test_gap_checker_detects_violations(monkeypatch):
    # a gap fault raises as the gap is made, so before a wrong reference reaches
    # headline, on an untraced run as on a traced one
    _, _, gap_cap = _gap_caps(K65536)
    x, eps = K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096))
    monkeypatch.setattr(fixtrig, "_scaled_heads", _perturbed_heads(1, gap_cap + K65536.step))
    monkeypatch.setattr(fixtrig, "cos_unbounded", lambda x, eps: oracle.cos_unbounded(x, eps) + 1)
    monkeypatch.setattr(fixtrig, "sin_unbounded", lambda x, eps: oracle.sin_unbounded(x, eps) + 1)
    for run in (paired_trace_cos, cos_fixpoint, paired_trace_sin, sin_fixpoint):
        with pytest.raises(BoundViolation) as info:
            run(x, eps)
        assert (info.value.bound, info.value.k) == ("first-gap", 1)


def test_gap_past_the_cap_is_caught_by_the_chain_check():
    # the deleted gap-chain check implied the gap cap; first-gap and half-gap-step,
    # which imply gap-chain, now catch a gap past the cap at every head
    _, _, gap_cap = _gap_caps(K65536)
    x, eps = K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096))
    for run in (paired_trace_cos, paired_trace_sin):
        n = run(x, eps).result.n
        assert n >= 3
        for i in range(1, n):
            for sign in (1, -1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(fixtrig, "_scaled_heads",
                               _perturbed_heads(i, sign * (gap_cap + K65536.step)))
                    with pytest.raises(BoundViolation) as info:
                        run(x, eps)
                expected = "first-gap" if i == 1 else "half-gap-step"
                assert (info.value.bound, info.value.k) == (expected, i)


@settings(deadline=None)
@given(st.sampled_from(GRID_FORMATS), st.sampled_from([paired_trace_cos, paired_trace_sin]),
       st.data())
def test_deleted_gap_checks_hold_on_real_traces(fmt_text, run, data):
    fmt = FixFormat.parse(fmt_text)
    q, first_gap_cap, gap_cap = _gap_caps(fmt)
    x = FixNum(data.draw(st.integers(-fmt.k, fmt.k)), fmt)                  # [-1, 1]
    eps = FixNum(data.draw(st.integers(-(-fmt.k // 1000), fmt.k - 1)), fmt)  # [1/1000, 1)
    records = run(x, eps).records
    # gap-chain, and its bound b_k, which gap-step carries exactly from b_1 = first_gap_cap
    assert all(abs(rec.delta) <= rec.delta_bound < gap_cap for rec in records)
    assert not records or records[0].delta_bound == first_gap_cap
    for prev, cur in zip(records, records[1:]):
        assert abs(cur.delta) <= q * q * abs(prev.delta) + (q + 1) * first_gap_cap
        assert cur.delta_bound == q * q * prev.delta_bound + (q + 1) * first_gap_cap


def test_closing_chain_is_live(monkeypatch):
    # an error past the chain but within the headline cap: only closing-chain fires,
    # on an untraced run as on a traced one
    _, first_gap_cap, gap_cap = _gap_caps(K65536)
    x, eps = K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096))
    result = cos_fixpoint(x, eps)
    eps_r, n = eps.to_rat(), result.n
    slack = eps_r / fixtrig.ORACLE_SLACK_DIVISOR
    chain = first_gap_cap + (n - 2) * gap_cap + eps_r
    assert result.a_priori_bound - chain == 2 * gap_cap - first_gap_cap > 0
    observed = (chain + result.a_priori_bound) / 2 + slack
    monkeypatch.setattr(fixtrig, "cos_unbounded",
                        lambda x, eps: result.value.to_rat() - observed)
    for run in (cos_fixpoint, paired_trace_cos):
        with pytest.raises(BoundViolation) as info:
            run(x, eps)
        assert info.value.bound == "closing-chain"  # headline, checked first, holds


TIE_X, TIE_EPS = K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096))
BEYOND = Fraction(1, 2**200)


def _reference_at(monkeypatch, result, observed: Fraction, sign: int) -> None:
    """Substitute both references so that the run's observed error is `observed`."""
    reference = result.value.to_rat() - sign * observed
    monkeypatch.setattr(fixtrig, "cos_unbounded", lambda x, eps: reference)
    monkeypatch.setattr(fixtrig, "sin_unbounded", lambda x, eps: reference)


def _headline_cap(result, eps: FixNum) -> Fraction:
    return result.a_priori_bound + eps.to_rat() / fixtrig.ORACLE_SLACK_DIVISOR


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("run,one_term_eps", [(cos_fixpoint, Fraction(1, 2)),
                                              (sin_fixpoint, Fraction(1, 4))],
                         ids=["cos_fixpoint", "sin_fixpoint"])
def test_headline_is_strict_at_an_exact_tie(run, one_term_eps, sign, monkeypatch):
    # an error exactly on a_priori_bound + slack passes and one 2^-200 past it
    # raises, so the cross-multiplied check compares with > and keeps the slack;
    # the tie is taken at n = 1, as closing-chain, whose cap lies below, runs from n = 2
    eps = K65536.exact(one_term_eps)
    tied, past = run(TIE_X, eps), run(TIE_X, TIE_EPS)
    assert tied.n == 1 and past.n >= 3
    _reference_at(monkeypatch, tied, _headline_cap(tied, eps), sign)
    assert run(TIE_X, eps) == tied
    _reference_at(monkeypatch, past, _headline_cap(past, TIE_EPS) + BEYOND, sign)
    with pytest.raises(BoundViolation) as info:
        run(TIE_X, TIE_EPS)
    assert info.value.bound == "headline"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("traced,untraced", [(paired_trace_cos, cos_fixpoint),
                                             (paired_trace_sin, sin_fixpoint)])
def test_closing_chain_is_strict_at_an_exact_tie(traced, untraced, sign, monkeypatch):
    # the same at chain + slack, which lies below the headline cap: past it only
    # closing-chain fires, on an untraced run as on a traced one
    _, first_gap_cap, gap_cap = _gap_caps(K65536)
    trace = traced(TIE_X, TIE_EPS)
    eps_r, n = TIE_EPS.to_rat(), trace.result.n
    assert n >= 3
    cap = first_gap_cap + (n - 2) * gap_cap + eps_r + eps_r / fixtrig.ORACLE_SLACK_DIVISOR
    _reference_at(monkeypatch, trace.result, cap, sign)
    assert traced(TIE_X, TIE_EPS) == trace
    assert untraced(TIE_X, TIE_EPS) == trace.result
    _reference_at(monkeypatch, trace.result, cap + BEYOND, sign)
    for run in (untraced, traced):
        with pytest.raises(BoundViolation) as info:
            run(TIE_X, TIE_EPS)
        assert info.value.bound == "closing-chain"  # headline, checked first, holds


def _divide_by_one_less(monkeypatch, divisor: int) -> None:
    """A fault in one loop factor: `FixFormat.from_int(divisor)` gives divisor - 1."""
    from_int = FixFormat.from_int
    monkeypatch.setattr(FixFormat, "from_int",
                        lambda fmt, i: from_int(fmt, i - 1 if i == divisor else i))


@pytest.mark.parametrize("run,divisor", [(paired_trace_cos, 3), (paired_trace_sin, 4)])
def test_half_gap_is_live(run, divisor, monkeypatch):
    # the half step of iteration 1 divides by fac1 - 1, so its gap is the first wrong value
    _divide_by_one_less(monkeypatch, divisor)
    with pytest.raises(BoundViolation) as info:
        run(K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096)))
    assert (info.value.bound, info.value.k) == ("half-gap", 1)


def _gap_on(at: int, gap: Fraction, target: Fraction):
    """`_perturbed_heads` that turns the gap at head `at`, now `gap`, into `target`."""
    # the gap is the fix-point term minus the signed exact term (-1)^at * term
    return _perturbed_heads(at, (-1) ** at * (gap - target))


@pytest.mark.parametrize("run", [paired_trace_cos, paired_trace_sin])
def test_gap_caps_are_strict_at_exact_ties(run):
    # each gap put exactly on its cap (c at head 1, else q*|half-step gap before| + c)
    # passes; one unit of the cap's reduced denominator past it raises, so the
    # cross-multiplied checks compare with > and not >=
    q, c, _ = _gap_caps(K65536)
    x, eps = K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096))
    records = run(x, eps).records
    assert len(records) >= 2
    for i, rec in enumerate(records, 1):
        cap = c if i == 1 else q * abs(records[i - 2].delta_half) + c
        sign = 1 if rec.delta >= 0 else -1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fixtrig, "_scaled_heads", _gap_on(i, rec.delta, sign * cap))
            assert abs(run(x, eps).records[i - 1].delta) == cap
            past = sign * (cap + Fraction(1, cap.denominator))
            mp.setattr(fixtrig, "_scaled_heads", _gap_on(i, rec.delta, past))
            with pytest.raises(BoundViolation) as info:
                run(x, eps)
        expected = "first-gap" if i == 1 else "half-gap-step"
        assert (info.value.bound, info.value.k) == (expected, i)


def _shifted_half_step(x: FixNum, fac1: int, units: int) -> FixNum:
    """x, whose quotient x / fac1, the factor of a half step, comes out `units` steps high."""
    class Shifted(FixNum):
        __slots__ = ()

        def __truediv__(self, other: FixNum) -> FixNum:
            quotient = FixNum.__truediv__(self, other)
            if other.m != fac1 * other.fmt.k:
                return quotient
            return FixNum(quotient.m + units, quotient.fmt)
    return Shifted(x.m, x.fmt)


def test_half_gap_is_strict_at_an_exact_tie():
    # A moved exact term alone never reaches half-gap: the half-step gap moves by
    # |x|/3 < q of what the gap moves. So the half step of iteration 1 gets the factor
    # x/3 four steps high; then the signed exact term at head 1 moves by u, which makes
    # the gap g - u and the half-step gap h - u*x/3. Here the gap stays positive and
    # the half-step gap negative, so u solves -(h - u*x/3) = q*(g - u) + c + over.
    q, c, _ = _gap_caps(K65536)
    x, eps = K65536.exact(Fraction(3, 4)), K65536.exact(Fraction(1, 4096))
    rec = paired_trace_cos(x, eps).records[0]
    r = x.to_rat() / 3
    factor = FixNum((x / K65536.from_int(3)).m + 4, K65536)
    h = (K65536.exact(rec.tcfp) * factor).to_rat() - rec.tc_exact * r
    shifted = _shifted_half_step(x, 3, 4)

    def gap_for(over: Fraction) -> Fraction:
        u = (h + q * rec.delta + c + over) / (q + r)
        assert 0 <= rec.delta - u <= c and h - u * r <= 0  # first-gap holds; signs as assumed
        return rec.delta - u

    gap = gap_for(Fraction(0))
    cap = q * gap + c
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixtrig, "_scaled_heads", _gap_on(1, rec.delta, gap))
        tied = paired_trace_cos(shifted, eps).records[0]
        assert (tied.delta, tied.delta_half) == (gap, -cap)
        mp.setattr(fixtrig, "_scaled_heads", _gap_on(1, rec.delta, gap_for(Fraction(1, cap.denominator))))
        with pytest.raises(BoundViolation) as info:
            paired_trace_cos(shifted, eps)
    assert (info.value.bound, info.value.k) == ("half-gap", 1)


def _first_invariant(run, fmt: FixFormat, x: Fraction, eps: Fraction) -> str:
    with pytest.raises(InvariantViolation) as info:
        run(fmt.exact(x), fmt.exact(eps))
    return str(info.value)


@pytest.mark.parametrize("run", [cos_fixpoint, paired_trace_cos])
def test_counter_clause_is_live(run, monkeypatch):
    # iteration 1 scales the counter by 3 for 4; its half step, and so half-gap, is right
    _divide_by_one_less(monkeypatch, 4)
    assert _first_invariant(run, K65536, Fraction(3, 4), Fraction(1, 4096)) == (
        "cos_fixpoint: counter stays an exact factorial multiple of eps")


@pytest.mark.parametrize("run", [cos_fixpoint, paired_trace_cos])
def test_lockstep_clause_is_live(run, monkeypatch):
    # 4! * (1/24) = 1 exactly: a fix-point guard that reads < as <= runs one head too far
    monkeypatch.setattr(FixNum, "__lt__", FixNum.__le__)
    fmt = FixFormat.parse("1/48:[-8,64]")
    assert _first_invariant(run, fmt, Fraction(1, 2), Fraction(1, 24)) == (
        "cos_fixpoint: loop guards agree (lockstep)")


@pytest.mark.parametrize("run", [cos_fixpoint, paired_trace_cos])
def test_final_count_clause_is_live(run, monkeypatch):
    count = fixtrig.cos_term_count
    monkeypatch.setattr(fixtrig, "cos_term_count", lambda eps: count(eps) + 1)
    assert _first_invariant(run, K65536, Fraction(3, 4), Fraction(1, 4096)) == (
        "cos_fixpoint: final n equals the minimal stop count")


def test_trace_count_check_is_live(monkeypatch):
    # head 2 comes twice, so one body run adds a second record; at x = 0 every
    # term and gap is 0 and the repeated head's counter is right, so only the
    # trace count can see it
    fix_heads = fixtrig._fix_heads

    def head_2_twice(x, eps, odd):
        for head in fix_heads(x, eps, odd):
            yield head
            if head[0] == 2:
                yield head
    monkeypatch.setattr(fixtrig, "_fix_heads", head_2_twice)
    fmt = FixFormat.parse("1/65536:[-8,64]")
    assert cos_fixpoint(fmt.exact(Fraction(0)), fmt.exact(Fraction(1, 4096))).n == 4
    for run, n in ((paired_trace_cos, 4), (paired_trace_sin, 3)):
        assert _first_invariant(run, fmt, Fraction(0), Fraction(1, 4096)) == (
            f"trace holds {n} records, expected n-1 = {n - 1}")


SWEEP_FORMATS = [FixFormat.parse(text) for text in (
    "1/256:[-8,64]", "1/65536:[-8,64]", "1/1000000:[-8,64]", "1/65536:[-8,1024]",
    "1/1099511627776:[-8,1024]")]


def _run_outcome(run, x, eps):
    """The result, or the exception's type, message, bound name, head and iteration."""
    try:
        return run(x, eps)
    except (ArithmeticError, ValueError, VerificationFailure) as exc:
        return (type(exc), str(exc), getattr(exc, "bound", None), getattr(exc, "k", None),
                getattr(exc, "iteration", None))


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(SWEEP_FORMATS), odd=st.booleans(),
       fault=st.sampled_from([None, "heads", "division"]), data=st.data())
def test_untraced_run_is_the_traced_result(fmt, odd, fault, data):
    # one path: an untraced run checks every gap a trace checks, at the same head,
    # and returns the trace's result or raises what the trace raises
    untraced, traced = (sin_fixpoint, paired_trace_sin) if odd else (cos_fixpoint, paired_trace_cos)
    x = FixNum(data.draw(st.integers(-fmt.k, fmt.k)), fmt)
    eps = FixNum(data.draw(st.integers(1, fmt.k - 1)
                           | st.integers(1, 30).map(lambda s: max(1, fmt.k >> s))), fmt)
    with pytest.MonkeyPatch.context() as mp:
        if fault == "heads":  # an exact term off by a multiple of half a step
            at, by = data.draw(st.integers(1, 5)), data.draw(st.integers(-4, 4)) * fmt.step / 2
            mp.setattr(fixtrig, "_scaled_heads", _perturbed_heads(at, by))
        if fault == "division":  # one factor x/fac off by a few steps, or by up to 40
            units = data.draw(st.integers(-6, 6) | st.integers(-40, 40).map(lambda u: u * fmt.k))
            x = _shifted_half_step(x, data.draw(st.integers(2, 9)), units)
        expected = _run_outcome(traced, x, eps)
        if isinstance(expected, fixtrig.PairedTrace):
            expected = expected.result
        assert _run_outcome(untraced, x, eps) == expected
