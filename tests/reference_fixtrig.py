"""Reference copy of the fix-point loop as it stood before the recurrence was
drawn out into a generator of loop heads (`fixtrig._fix_heads`).

`run` is that loop: the FixNum recurrence, its exact twin read from the
Fraction view `_heads` of `oracle._scaled_heads`, and every check, interleaved
in one body. The library's twin now reads the integers themselves, so that
view lives on here only. Its records keep the half-step values in a nested
`HalfStep`, as they were then stored. It is kept verbatim, apart from names,
as an oracle for `tests/test_series_reference.py`: the library must give the
same records (by `as_dict()`), the same result, and the same exceptions with
the same messages and overflow iterations.

`error_bound` is the library's Fraction body from before the fix-point checks
moved to integer numerators and denominators, kept verbatim as the reference
for `tests/test_fixtrig.py` and used by `run` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from trigcheck.errors import (
    ArgOutOfRange,
    BoundViolation,
    EpsOutOfRange,
    FormatMismatch,
    InvariantViolation,
    PreconditionViolation,
    RangeOverflow,
)
from trigcheck.exact import rat_str, to_decimal
from trigcheck.fixpoint import FixNum
from trigcheck.fixtrig import (
    ORACLE_SLACK_DIVISOR,
    FixAlgoResult,
    PairedTrace,
    cos_term_count,
    sin_term_count,
)
from trigcheck.oracle import _scaled_heads, cos_unbounded, sin_unbounded


@dataclass(frozen=True)
class HalfStep:
    """Mid-iteration values after dividing by the odd factor only."""

    tc_half: Fraction
    tcfp_half: Fraction
    delta_half: Fraction


@dataclass(frozen=True)
class TraceRecord:
    """Synchronized snapshot of both loops just before guard check k."""

    k: int
    tc_exact: Fraction
    cs_exact: Fraction
    tcfp: Fraction
    csfp: Fraction
    delta: Fraction
    delta_bound: Fraction
    ep_exact: Fraction
    epfp: Fraction
    half: HalfStep

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "tc": rat_str(self.tc_exact),
            "cs": rat_str(self.cs_exact),
            "tcfp": rat_str(self.tcfp),
            "csfp": rat_str(self.csfp),
            "delta": rat_str(self.delta),
            "delta_bound": rat_str(self.delta_bound),
            "ep": rat_str(self.ep_exact),
            "epfp": rat_str(self.epfp),
            "half": {
                "tc_half": rat_str(self.half.tc_half),
                "tcfp_half": rat_str(self.half.tcfp_half),
                "delta_half": rat_str(self.half.delta_half),
            },
        }


def _heads(x: Fraction, odd: bool):
    """The Fraction view (n, sign, term, acc, fact) of `_scaled_heads`."""
    for n, sign, t, a, d, fact in _scaled_heads(x, odd):
        yield n, sign, Fraction(t, d), Fraction(a, d), fact


def error_bound(n: int, delta: Fraction, eps: Fraction) -> Fraction:
    """A-priori error cap eps + 3*n*delta / (2*(1 - delta)), exactly."""
    delta = Fraction(delta)
    eps = Fraction(eps)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    a, b = delta.numerator, delta.denominator
    return eps + Fraction(3 * n * a, 2 * (b - a))


def _invariant(condition: bool, where: str, clause: str) -> None:
    if not condition:
        raise InvariantViolation(f"{where}: {clause}")


def _past_cap(gap: Fraction, prev: Fraction | int, k: int) -> bool:
    """|gap| > q*|prev| + c, cross-multiplied, for q = (k+1)/(2k) and c = 3/(4k) on step 1/k."""
    return 4 * k * abs(gap.numerator) * prev.denominator > (
        2 * (k + 1) * abs(prev.numerator) + 3 * prev.denominator) * gap.denominator


def run(x: FixNum, eps: FixNum, odd: bool, with_trace: bool) -> PairedTrace:
    if not isinstance(x, FixNum) or not isinstance(eps, FixNum):
        raise TypeError("x and eps must be FixNum values")
    fmt = x.fmt
    if fmt != eps.fmt:
        raise FormatMismatch("x and eps use different formats")
    eps_r = eps.to_rat()
    if not 0 < eps.m < fmt.k:
        raise EpsOutOfRange("0 < eps < 1", f"got {eps_r}")
    x_r = x.to_rat()
    if not -fmt.k <= x.m <= fmt.k:
        raise ArgOutOfRange("-1 <= x <= 1", f"got {x_r}")
    n_goal = sin_term_count(eps_r) if odd else cos_term_count(eps_r)
    if n_goal > fmt.sup:
        raise PreconditionViolation(
            "stop counter representable",
            f"need integer {n_goal} within [inf, sup] of {fmt}")
    sup_needed = 2 * n_goal * (2 * n_goal + 1 if odd else 2 * n_goal - 1)
    if fmt.sup < sup_needed:
        raise PreconditionViolation(
            "sup large enough for counter scaling",
            f"need sup >= {sup_needed}, format {fmt}")
    name = "sin_fixpoint" if odd else "cos_fixpoint"
    shift = 1 if odd else 0
    one = fmt.from_int(1)

    # exact twin: its counter (-1)^k * fact_eps_m steps is the definition itself; its
    # term (from the oracle's loop heads, carried signed so the gap is a plain
    # difference) and sum only feed the trace, whose gaps are checked where made
    if with_trace:
        heads = _heads(x_r, odd)
        # q = (1+step)/2, c = (3/4)*step and (3/2)*step/(1-step), for step = 1/fmt.k
        q = Fraction(fmt.k + 1, 2 * fmt.k)
        gap_cap = Fraction(3, 2 * (fmt.k - 1))
        first_gap_cap = Fraction(3, 4 * fmt.k)
        # no gap-step check: half-gap at k-1 and half-gap-step at k compose into it
        # no gap-chain check: first-gap at k = 1, then its bound meets gap-step's exactly

    records: list[TraceRecord] = []
    k = 1
    try:
        xx = x * x
        accfp = x if odd else one
        tcfp = -((xx * x) / fmt.from_int(6) if odd else xx / fmt.from_int(2))
        epfp = fmt.from_int(6 if odd else 2) * eps
        while True:
            fact_eps_m = math.factorial(2 * k + shift) * eps.m  # (2k+s)! * eps in steps
            _invariant(epfp.m == fact_eps_m, name,
                       "counter stays an exact factorial multiple of eps")
            # no exact-counter check: the twin's counter is fact_eps_m itself, not a copy
            guard = epfp < one
            _invariant(guard == (fact_eps_m < fmt.k), name, "loop guards agree (lockstep)")
            if not guard:
                break
            if with_trace:
                _, sign, term, acc_e, _ = next(heads)
                tc_e = term if sign > 0 else -term
                tcfp_r = tcfp.to_rat()
                gap = tcfp_r - tc_e
                if k == 1 and _past_cap(gap, 0, fmt.k):
                    raise BoundViolation("first-gap", k=1, detail=f"{gap}")
                if k > 1 and _past_cap(gap, half_gap, fmt.k):
                    raise BoundViolation("half-gap-step", k=k)
                head = (k, tc_e, acc_e, tcfp_r, accfp.to_rat(), gap,
                        gap_cap * (1 - q ** (2 * k - 1)),
                        Fraction(sign * fact_eps_m, fmt.k), epfp.to_rat())
            accfp = accfp + tcfp
            k += 1
            fac1 = 2 * k + shift - 1   # 2k-1 for cosine, 2k for sine
            fac2 = 2 * k + shift       # 2k for cosine, 2k+1 for sine
            tcfp_half = tcfp * (x / fmt.from_int(fac1))
            tcfp = (-tcfp_half) * (x / fmt.from_int(fac2))
            epfp = fmt.from_int(fac2) * (fmt.from_int(fac1) * epfp)
            if with_trace:
                tc_half = tc_e * x_r / fac1
                tcfp_half_r = tcfp_half.to_rat()
                half_gap = tcfp_half_r - tc_half
                if _past_cap(half_gap, gap, fmt.k):
                    raise BoundViolation("half-gap", k=k - 1)
                records.append(TraceRecord(*head, HalfStep(tc_half, tcfp_half_r, half_gap)))
    except RangeOverflow as exc:
        exc.iteration = k
        raise

    n = k
    _invariant(n == n_goal, name, "final n equals the minimal stop count")
    bound = error_bound(n, fmt.step, eps_r)
    slack = eps_r / ORACLE_SLACK_DIVISOR
    reference_fn = sin_unbounded if odd else cos_unbounded
    reference = reference_fn(x_r, slack)
    observed = abs(accfp.to_rat() - reference)
    if observed > bound + slack:
        raise BoundViolation("headline", detail=(
            f"{name}: observed {to_decimal(observed, 12)} > cap "
            f"{to_decimal(bound + slack, 12)} for x={rat_str(x_r)} eps={rat_str(eps_r)}"))
    if with_trace:
        if len(records) != n - 1:
            raise InvariantViolation(
                f"trace holds {len(records)} records, expected n-1 = {n - 1}")
        chain = first_gap_cap + (n - 2) * gap_cap + eps_r
        if n >= 2 and observed > chain + slack:
            raise BoundViolation("closing-chain", detail=(
                f"observed {to_decimal(observed, 12)} > "
                f"{to_decimal(chain + slack, 12)}"))
    return PairedTrace(records, FixAlgoResult(accfp, n, bound))
