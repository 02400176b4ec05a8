"""Exact-arithmetic series algorithms against hand traces and the golden oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcheck import (
    cos_taylor,
    cos_unbounded,
    cos_zerone,
    pi_leibniz,
    sin_taylor,
    sin_unbounded,
    sin_zerone,
    to_decimal,
)
from trigcheck.errors import ArgOutOfRange, EpsOutOfRange, NonPositiveEps


def test_pi_leibniz_hand_trace():
    result = pi_leibniz(Fraction(1, 2))
    assert result.value == Fraction(304, 105)
    assert result.iterations == 3
    assert result.a_priori_bound == Fraction(1, 2)


@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(2, 7), Fraction(9, 10),
                                 Fraction(1, 50), Fraction(3, 1000)])
def test_pi_leibniz_iteration_count_law(eps):
    result = pi_leibniz(eps)
    assert result.iterations == math.ceil(Fraction(2) / eps - Fraction(3, 2))


def test_pi_leibniz_accuracy(pi_ref):
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        assert abs(pi_leibniz(eps).value - pi_ref) <= eps


def test_pi_leibniz_rejects_bad_eps():
    with pytest.raises(NonPositiveEps):
        pi_leibniz(Fraction(0))
    with pytest.raises(NonPositiveEps):
        pi_leibniz(Fraction(-1, 2))


def test_cos_taylor_hand_trace():
    result = cos_taylor(Fraction(1), Fraction(1, 20))
    assert result.value == Fraction(1, 2)
    assert result.iterations == 1
    reference = cos_unbounded(Fraction(1), Fraction(1, 10**12))
    assert abs(result.value - reference) <= Fraction(1, 20)


def test_cos_taylor_at_zero():
    result = cos_taylor(Fraction(0), Fraction(1, 10))
    assert result.value == 1
    assert result.iterations == 0


def test_sin_taylor_hand_trace():
    result = sin_taylor(Fraction(1), Fraction(1, 20))
    assert result.value == Fraction(5, 6)
    reference = sin_unbounded(Fraction(1), Fraction(1, 10**12))
    assert abs(result.value - reference) <= Fraction(1, 20)


def test_sin_taylor_negative_argument_contract():
    # the loop guard compares magnitudes, so negative arguments converge too
    x = Fraction(-9, 10)
    eps = Fraction(1, 100)
    result = sin_taylor(x, eps)
    reference = sin_unbounded(x, eps / 1000)
    assert abs(result.value - reference) <= eps + eps / 1000


def test_taylor_eps_domain():
    for fn in (cos_taylor, sin_taylor):
        with pytest.raises(EpsOutOfRange):
            fn(Fraction(1, 2), Fraction(1))
        with pytest.raises(EpsOutOfRange):
            fn(Fraction(1, 2), Fraction(0))


def test_cos_zerone_hand_traces():
    result = cos_zerone(Fraction(1), Fraction(1, 4))
    assert result.value == Fraction(1, 2)
    assert result.iterations == 2

    result = cos_zerone(Fraction(1, 2), Fraction(1, 4))
    assert result.value == Fraction(7, 8)
    assert result.iterations == 2


def test_sin_zerone_at_zero():
    result = sin_zerone(Fraction(0), Fraction(1, 2))
    assert result.value == 0
    assert result.iterations == 1


@pytest.mark.parametrize("eps,expected_n", [
    (Fraction(1, 4), 2),
    (Fraction(1, 2), 1),
    (Fraction(1, 100), 3),
    (Fraction(1, 1000), 4),
])
def test_cos_zerone_stop_count_is_minimal(eps, expected_n):
    assert cos_zerone(Fraction(1, 3), eps).iterations == expected_n
    n = 1
    while math.factorial(2 * n) * eps < 1:
        n += 1
    assert n == expected_n


def test_zerone_domain_errors():
    with pytest.raises(ArgOutOfRange):
        cos_zerone(Fraction(2), Fraction(1, 4))
    with pytest.raises(ArgOutOfRange):
        sin_zerone(Fraction(-3, 2), Fraction(1, 4))
    with pytest.raises(EpsOutOfRange):
        cos_zerone(Fraction(1, 2), Fraction(2))


def test_zerone_matches_oracle_within_eps():
    for num in (-7, -3, 0, 5, 9):
        x = Fraction(num, 10)
        for eps in (Fraction(1, 4), Fraction(1, 64), Fraction(1, 10**4)):
            ref_c = cos_unbounded(x, eps / 1000)
            ref_s = sin_unbounded(x, eps / 1000)
            assert abs(cos_zerone(x, eps).value - ref_c) <= eps + eps / 1000
            assert abs(sin_zerone(x, eps).value - ref_s) <= eps + eps / 1000


def test_cos_unbounded_golden_value():
    value = cos_unbounded(Fraction(50), Fraction(1, 10**8))
    assert to_decimal(value, 10) == "0.9649660286"


def test_cos_unbounded_basics():
    assert cos_unbounded(Fraction(0), Fraction(1, 10**8)) == 1
    assert sin_unbounded(Fraction(0), Fraction(1, 10**8)) == 0
    with pytest.raises(NonPositiveEps):
        cos_unbounded(Fraction(1), Fraction(0))


def test_unbounded_agrees_with_taylor():
    fine = cos_unbounded(Fraction(1), Fraction(1, 10**12))
    coarse = cos_taylor(Fraction(1), Fraction(1, 10**6)).value
    assert abs(fine - coarse) <= Fraction(2, 10**6)


def test_unbounded_parity_is_exact():
    x = Fraction(13, 7)
    eps = Fraction(1, 10**6)
    assert cos_unbounded(-x, eps) == cos_unbounded(x, eps)
    assert sin_unbounded(-x, eps) == -sin_unbounded(x, eps)


def test_result_serialization():
    payload = pi_leibniz(Fraction(1, 2)).as_dict(digits=6)
    assert payload == {
        "value": "304/105",
        "decimal": "2.895238",
        "iterations": 3,
        "bound": "1/2",
    }


@settings(max_examples=150, deadline=None)
@given(x=st.fractions(min_value=-40, max_value=40, max_denominator=1000),
       eps=st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(999, 1000),
                        max_denominator=10**9),
       odd=st.booleans())
def test_taylor_exit_keeps_x_within_the_last_index(x, eps, odd):
    # the exit head n = iterations + 1 has |x| <= 2n+s with no check run on
    # it: |x|^m/m! = |term| <= eps < 1 there, with m = 2n+s and m! <= m^m
    result = (sin_taylor if odd else cos_taylor)(x, eps)
    assert abs(x) <= 2 * (result.iterations + 1) + (1 if odd else 0)


def test_pi_leibniz_huge_eps_runs_zero_iterations():
    result = pi_leibniz(Fraction(5))
    assert result.iterations == 0
    assert result.value == 4  # the untouched first partial sum, 4 * 1


def test_cos_taylor_moderate_argument():
    # no range restriction on the plain Taylor variant; the exit check
    # certifies the alternating-series applicability
    eps = Fraction(1, 100)
    result = cos_taylor(Fraction(5), eps)
    reference = cos_unbounded(Fraction(5), eps / 1000)
    assert abs(result.value - reference) <= eps + eps / 1000
    assert result.iterations >= 5


def test_invariant_checker_raises_on_false_clause():
    from trigcheck.errors import InvariantViolation
    from trigcheck.oracle import _invariant

    _invariant(True, "here", "fine")
    with pytest.raises(InvariantViolation, match="demo clause"):
        _invariant(False, "here", "demo clause")


@pytest.mark.parametrize("fn", [cos_taylor, cos_zerone])
def test_accumulator_clause_is_checked_past_head_64(fn, monkeypatch):
    # at x = 1 and eps = 1e-300 both loops run about 85 heads; a fault in
    # the accumulator at head 70 must be caught there, and by that clause
    from trigcheck import oracle
    from trigcheck.errors import InvariantViolation

    heads = oracle._scaled_heads

    def faulty(x, odd):
        for n, sign, t, a, d, fact in heads(x, odd):
            if n == 70:
                # acc = a/d moves by 10^-400; the term t/d keeps its value
                t, a, d = t * 10**400, a * 10**400 + d, d * 10**400
            yield n, sign, t, a, d, fact

    monkeypatch.setattr(oracle, "_scaled_heads", faulty)
    with pytest.raises(InvariantViolation, match="accumulator = partial Taylor sum"):
        fn(Fraction(1), Fraction(1, 10**300))


# (name, fault applied to a head tuple, the clause that must catch it, routines)
HEAD_FAULTS = [
    ("sign", lambda n, sign, t, a, d, fact: (n, -sign, t, a, d, fact),
     "sign = (-1)^n", (cos_taylor, sin_taylor, cos_zerone, sin_zerone)),
    ("term", lambda n, sign, t, a, d, fact: (n, sign, 2 * t, a, d, fact),
     "term = x^(2n)/(2n)! scaled for parity", (cos_taylor, sin_taylor, cos_zerone, sin_zerone)),
    # only the zerone loops read fact, through their stop counter
    ("fact", lambda n, sign, t, a, d, fact: (n, sign, t, a, d, fact + 1),
     "ep = (-1)^n * (2n)! * eps scaled for parity", (cos_zerone, sin_zerone)),
]


@pytest.mark.parametrize("corrupt, clause, fn", [
    pytest.param(corrupt, clause, fn, id=f"{name}-{fn.__name__}")
    for name, corrupt, clause, fns in HEAD_FAULTS for fn in fns])
def test_each_head_clause_catches_its_fault(corrupt, clause, fn, monkeypatch):
    # a fault in one field at head 3 must be caught there, by that field's clause
    from trigcheck import oracle
    from trigcheck.errors import InvariantViolation

    heads = oracle._scaled_heads

    def faulty(x, odd):
        for head in heads(x, odd):
            yield corrupt(*head) if head[0] == 3 else head

    monkeypatch.setattr(oracle, "_scaled_heads", faulty)
    with pytest.raises(InvariantViolation) as exc:
        fn(Fraction(3, 4), Fraction(1, 10**12))
    assert str(exc.value) == f"{fn.__name__}: invariant clause failed: {clause}"


# one unit in the last place of a head's unreduced numerator: d has about 240
# digits at x = 1 (140! or 141!) and about 660 at x over 1000 (times 1000^140)
ONE_UNIT_FAULTS = [
    ("acc", lambda n, sign, t, a, d, fact: (n, sign, t, a + 1, d, fact),
     "accumulator = partial Taylor sum"),
    ("term", lambda n, sign, t, a, d, fact: (n, sign, t + 1, a, d, fact),
     "term = x^(2n)/(2n)! scaled for parity"),
]


@pytest.mark.parametrize("x", [Fraction(1), Fraction(-999, 1000)], ids=["x=1", "x=-999/1000"])
@pytest.mark.parametrize("fn", [cos_taylor, sin_taylor, cos_zerone, sin_zerone])
@pytest.mark.parametrize("corrupt, clause", [
    pytest.param(corrupt, clause, id=name) for name, corrupt, clause in ONE_UNIT_FAULTS])
def test_one_unit_fault_at_head_70_is_caught(corrupt, clause, fn, x, monkeypatch):
    # the clauses compare cross-multiplied integers, so no digit of a or t is lost
    from trigcheck import oracle
    from trigcheck.errors import InvariantViolation

    heads = oracle._scaled_heads
    digits = []

    def faulty(x, odd):
        for head in heads(x, odd):
            if head[0] == 70:
                digits.append(math.log10(head[4]))
                head = corrupt(*head)
            yield head

    monkeypatch.setattr(oracle, "_scaled_heads", faulty)
    with pytest.raises(InvariantViolation) as exc:
        fn(x, Fraction(1, 10**300))
    assert str(exc.value) == f"{fn.__name__}: invariant clause failed: {clause}"
    assert digits[0] > (660 if x.denominator == 1000 else 240)


def _lying_math(monkeypatch, **lies):
    """Make oracle's `math` answer through `lies`, by name; other names stay real."""
    from types import SimpleNamespace

    from trigcheck import oracle

    names = {name: getattr(math, name) for name in ("ceil", "factorial", "gcd")}
    monkeypatch.setattr(oracle, "math", SimpleNamespace(**{**names, **lies}))


def test_pi_iteration_clause_catches_a_miscounted_ceil(monkeypatch):
    from trigcheck.errors import InvariantViolation

    _lying_math(monkeypatch, ceil=lambda value: math.ceil(value) + 1)
    with pytest.raises(InvariantViolation) as exc:
        pi_leibniz(Fraction(1, 10))
    assert str(exc.value) == "pi_leibniz: invariant clause failed: iterations = ceil(2/eps - 3/2)"


def test_pi_partial_sum_clause_catches_one_lying_gcd(monkeypatch):
    # at n = 1 a gcd of 2 gives scale 3 // 2 = 1 and adds 1 // 3 = 0: the
    # first term -1/3 is lost, and head 2 compares qp = 1 with 1 - 1/3
    from trigcheck.errors import InvariantViolation

    calls = []

    def gcd(a, b):
        calls.append((a, b))
        return 2 if len(calls) == 1 else math.gcd(a, b)

    _lying_math(monkeypatch, gcd=gcd)
    with pytest.raises(InvariantViolation) as exc:
        pi_leibniz(Fraction(1, 10))
    assert str(exc.value) == "pi_leibniz: invariant clause failed: qp = sum of first n series terms"
    assert len(calls) == 1


def test_records_take_one_positional_value_per_slot():
    from trigcheck import AlgoResult

    assert AlgoResult(Fraction(1), 0, Fraction(1, 2)).iterations == 0
    with pytest.raises(TypeError, match="^AlgoResult takes 3 values, got 2$"):
        AlgoResult(Fraction(1), 0)
    with pytest.raises(TypeError):
        AlgoResult(value=Fraction(1), iterations=0, a_priori_bound=Fraction(1, 2))
