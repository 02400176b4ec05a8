"""Fix-point cosine and sine with their correctness bounds checked at runtime.

The algorithms mirror the exact range-restricted routines in `oracle`, with
two rounding operations per accumulated term (a divide and a multiply by the
argument). As in `oracle`, one generator, `_fix_heads`, holds the recurrence,
and `_run` only checks its heads. The stop counter is scaled by integer grid
values only, which the datatype keeps exact, so at every head it equals
(2k+s)! * eps, the exact loop's counter taken from its definition, and both
loops stop at the same count. Both counter clauses compare integer numerators
over the grid's denominator fmt.k. Every run walks the fix-point loop in
lockstep with the exact one, whose terms and sums come from `oracle._scaled_heads`,
and checks each term gap where it is made: the gap is an integer pair (numerator,
denominator), cross-multiplied into a comparison of integers. With q = (1+step)/2
and c = (3/4)*step, the first gap is at most c, a half step's gap at most q times
the gap before it plus c, and the next gap at most q times that plus c. So each
gap is at most q^2 times the previous one plus (q+1)*c and stays below
(3/2)*step/(1-step)*(1 - q^(2k-1)); these two follow and are not checked.
The closing checks, headline and closing-chain, cross-multiply the result's grid
numerator with the reference's integers too, so a passing run applies no Fraction
operator. Every run keeps one row of integers per term and checks their count;
`paired_trace_cos`/`paired_trace_sin` turn the rows of that same run into records,
each of which builds its Fraction fields when they are read.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .errors import (
    ArgOutOfRange,
    BoundViolation,
    EpsOutOfRange,
    FormatMismatch,
    InvariantViolation,
    PreconditionViolation,
    RangeOverflow,
    _invariant,
)
from .exact import DECIMALS, rat_str, to_decimal
from .fixpoint import FixNum
from .oracle import _scaled_heads, cos_unbounded, sin_unbounded
from .value import Value

ORACLE_SLACK_DIVISOR = 1000  # reference values are computed at eps/1000


class FixAlgoResult(Value):
    """Fix-point result, its term count n, and the a-priori error cap."""

    __slots__ = ("value", "n", "a_priori_bound")

    def as_dict(self) -> dict:
        exact = self.value.to_rat()
        return {
            "value": str(self.value),
            "value_exact": rat_str(exact),
            "decimal": to_decimal(exact, DECIMALS),
            "n": self.n,
            "bound": rat_str(self.a_priori_bound),
            "format": str(self.value.fmt),
        }


# (CSV column and JSON key, TraceRecord field) of each trace column, in order
TRACE_COLUMNS = (("k", "k"), ("tc", "tc_exact"), ("cs", "cs_exact"), ("tcfp", "tcfp"),
                 ("csfp", "csfp"), ("delta", "delta"), ("delta_bound", "delta_bound"),
                 ("ep", "ep_exact"), ("epfp", "epfp"))
TRACE_CSV_HEADER = [column for column, _ in TRACE_COLUMNS]


class TraceRecord(Value):
    """Synchronized snapshot of both loops just before guard check k.

    A record keeps the run's integers: numerators over the grid's denominator
    (`_k`, fmt.k), over the exact term's d = q^m*m! (`_d`) and over the half
    step's `_half_d`, and the two gaps' numerators over `_k` times those. Each
    field below is a Fraction built from them when it is read.
    `delta` is the fix-point term minus the exact (signed) term;
    `delta_bound` is the cumulative propagation cap for this iteration.
    `tc_half`, `tcfp_half` and `delta_half` are the exact term, the fix-point
    term and their gap in the next step, after its first factor x/(2k+s+1) only.
    """

    __slots__ = ("k", "_k", "_d", "_tc", "_cs", "_tcfp", "_csfp", "_delta", "_ep", "_epfp",
                 "_half_d", "_tc_half", "_tcfp_half", "_delta_half")
    _fields = ("k", "tc_exact", "cs_exact", "tcfp", "csfp", "delta", "delta_bound",
               "ep_exact", "epfp", "tc_half", "tcfp_half", "delta_half")

    tc_exact = property(lambda r: Fraction(r._tc, r._d))
    cs_exact = property(lambda r: Fraction(r._cs, r._d))
    tcfp = property(lambda r: Fraction(r._tcfp, r._k))
    csfp = property(lambda r: Fraction(r._csfp, r._k))
    delta = property(lambda r: Fraction(r._delta, r._k * r._d))
    ep_exact = property(lambda r: Fraction(r._ep, r._k))
    epfp = property(lambda r: Fraction(r._epfp, r._k))
    tc_half = property(lambda r: Fraction(r._tc_half, r._half_d))
    tcfp_half = property(lambda r: Fraction(r._tcfp_half, r._k))
    delta_half = property(lambda r: Fraction(r._delta_half, r._k * r._half_d))

    @property
    def delta_bound(self) -> Fraction:
        """(3/2)*step/(1-step) * (1 - q^j) for q = (1+step)/2 and j = 2k-1."""
        j = 2 * self.k - 1
        qd = (2 * self._k) ** j
        return Fraction(3 * (qd - (self._k + 1) ** j), 2 * (self._k - 1) * qd)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def as_dict(self) -> dict:
        """The CSV row's columns (k as an int), then the half step under "half"."""
        row = {column: rat_str(getattr(self, field)) for column, field in TRACE_COLUMNS[1:]}
        half = {field: rat_str(getattr(self, field)) for field in self._fields[-3:]}
        return {"k": self.k, **row, "half": half}


class PairedTrace(Value):
    __slots__ = ("records", "result")


def error_bound(n: int, delta: Fraction, eps: Fraction) -> Fraction:
    """A-priori error cap eps + 3*n*delta / (2*(1 - delta)), exactly."""
    (a, b), (e, f) = Fraction(delta).as_integer_ratio(), Fraction(eps).as_integer_ratio()
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 < a < b:
        raise ValueError("delta must be in (0, 1)")
    if e <= 0:
        raise ValueError("eps must be positive")
    return Fraction(2 * (b - a) * e + 3 * n * a * f, 2 * (b - a) * f)


def _term_count(eps: Fraction, odd: bool) -> int:
    e, f = Fraction(eps).as_integer_ratio()
    if e <= 0:
        raise ValueError("eps must be positive")
    shift = 1 if odd else 0
    n = 1
    fact = 6 if odd else 2
    while fact * e < f:
        n += 1
        fact *= (2 * n + shift - 1) * (2 * n + shift)
    return n


def cos_term_count(eps: Fraction) -> int:
    """Least N >= 1 with (2N)! * eps >= 1."""
    return _term_count(eps, odd=False)


def sin_term_count(eps: Fraction) -> int:
    """Least N >= 1 with (2N+1)! * eps >= 1."""
    return _term_count(eps, odd=True)


def cos_fixpoint(x: FixNum, eps: FixNum) -> FixAlgoResult:
    """Fix-point cosine for |x| <= 1, certified at runtime within error_bound(n, step,
    eps) of the exact-series reference after each gap check of paired_trace_cos."""
    return _run(x, eps, odd=False)[0]


def sin_fixpoint(x: FixNum, eps: FixNum) -> FixAlgoResult:
    """Fix-point sine analog of cos_fixpoint."""
    return _run(x, eps, odd=True)[0]


def paired_trace_cos(x: FixNum, eps: FixNum) -> PairedTrace:
    """cos_fixpoint's run, with the exact and fix-point loops in lockstep, and its
    rows as one TraceRecord per accumulated term (iterations 1 .. n-1). Each gap
    is checked as it is made, on every run, and a failure raises BoundViolation
    rather than returning a trace that looks healthy.
    """
    result, rows = _run(x, eps, odd=False)
    return PairedTrace([TraceRecord(*row) for row in rows], result)


def paired_trace_sin(x: FixNum, eps: FixNum) -> PairedTrace:
    """Sine analog of paired_trace_cos."""
    result, rows = _run(x, eps, odd=True)
    return PairedTrace([TraceRecord(*row) for row in rows], result)


def _past_cap(gap: tuple[int, int], prev: tuple[int, int], k: int) -> bool:
    """|gap| > q*|prev| + c, cross-multiplied, for q = (k+1)/(2k) and c = 3/(4k) on step 1/k;
    each gap is an integer pair (numerator, positive denominator)."""
    return 4 * k * abs(gap[0]) * prev[1] > (2 * (k + 1) * abs(prev[0]) + 3 * prev[1]) * gap[1]


def _fix_heads(x: FixNum, eps: FixNum, odd: bool) -> Iterator[tuple]:
    """Heads (k, epfp, tcfp, accfp, tcfp_half) of the fix-point cos (odd=False) or sin
    loop, endless; tcfp_half is the last step's term after its first rounding (None at
    head 1). A RangeOverflow is tagged with the head being reached."""
    fmt = x.fmt
    shift = 1 if odd else 0
    k, tcfp_half = 1, None
    try:
        xx = x * x
        accfp = x if odd else fmt.from_int(1)
        tcfp = -((xx * x) / fmt.from_int(6) if odd else xx / fmt.from_int(2))
        epfp = fmt.from_int(6 if odd else 2) * eps
        while True:
            yield k, epfp, tcfp, accfp, tcfp_half
            accfp = accfp + tcfp
            k += 1
            fac = 2 * k + shift  # 2k for cosine, 2k+1 for sine; the step's factors are fac-1, fac
            lo, hi = fmt.from_int(fac - 1), fmt.from_int(fac)
            tcfp_half = tcfp * (x / lo)
            tcfp = (-tcfp_half) * (x / hi)
            epfp = hi * (lo * epfp)
    except RangeOverflow as exc:
        exc.iteration = k
        raise


def _run(x: FixNum, eps: FixNum, odd: bool) -> tuple[FixAlgoResult, list[tuple]]:
    """The checked run's result and its rows, each the 14 ints of one TraceRecord."""
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
    if n_goal * fmt.k > fmt.m_sup:
        raise PreconditionViolation(
            "stop counter representable",
            f"need integer {n_goal} within [inf, sup] of {fmt}")
    sup_needed = 2 * n_goal * (2 * n_goal + 1 if odd else 2 * n_goal - 1)
    if fmt.m_sup < sup_needed * fmt.k:
        raise PreconditionViolation(
            "sup large enough for counter scaling",
            f"need sup >= {sup_needed}, format {fmt}")
    name = "sin_fixpoint" if odd else "cos_fixpoint"
    shift = 1 if odd else 0
    one = fmt.from_int(1)

    # exact twin, walked on every run: its counter (-1)^k * fact_eps_m steps is the
    # definition itself; its term tn/d (from the oracle's loop heads, signed so the gap
    # is a plain difference) and sum feed the gaps, integer pairs checked where made
    heads = _scaled_heads(x_r, odd)
    p, q = x_r.numerator, x_r.denominator
    # no gap-step check: half-gap at k-1 and half-gap-step at k compose into it
    # no gap-chain check: first-gap at k = 1, then its bound meets gap-step's exactly

    rows: list[tuple] = []
    for k, epfp, tcfp, accfp, tcfp_half in _fix_heads(x, eps, odd):
        if k > 1:
            half_n, half_d = tn * p, d * q * (2 * k + shift - 1)  # exact half step half_n/half_d
            half_gap = (tcfp_half.m * half_d - half_n * fmt.k, fmt.k * half_d)
            if _past_cap(half_gap, gap, fmt.k):
                raise BoundViolation("half-gap", k=k - 1)
            rows.append((*head, half_d, half_n, tcfp_half.m, half_gap[0]))
        fact_eps_m = math.factorial(2 * k + shift) * eps.m  # (2k+s)! * eps in steps
        _invariant(epfp.m == fact_eps_m, name,
                   "counter stays an exact factorial multiple of eps")
        # no exact-counter check: the twin's counter is fact_eps_m itself, not a copy
        guard = epfp < one
        _invariant(guard == (fact_eps_m < fmt.k), name, "loop guards agree (lockstep)")
        if not guard:
            break
        _, sign, t, a, d, _ = next(heads)
        tn = t if sign > 0 else -t
        gap = (tcfp.m * d - tn * fmt.k, fmt.k * d)
        if k == 1 and _past_cap(gap, (0, 1), fmt.k):
            raise BoundViolation("first-gap", k=1, detail=f"{Fraction(*gap)}")
        if k > 1 and _past_cap(gap, half_gap, fmt.k):
            raise BoundViolation("half-gap-step", k=k)
        head = (k, fmt.k, d, tn, a, tcfp.m, accfp.m, gap[0], sign * fact_eps_m, epfp.m)

    n = k
    _invariant(n == n_goal, name, "final n equals the minimal stop count")
    bound = error_bound(n, fmt.step, eps_r)
    div = ORACLE_SLACK_DIVISOR
    slack = Fraction(eps.m, div * fmt.k)
    reference = (sin_unbounded if odd else cos_unbounded)(x_r, slack)
    (rn, rd), (bn, bd) = reference.as_integer_ratio(), bound.as_integer_ratio()
    miss = abs(accfp.m * rd - rn * fmt.k)  # the observed error is miss/(k*rd)
    if miss * div * bd > (div * fmt.k * bn + eps.m * bd) * rd:
        observed = Fraction(miss, fmt.k * rd)
        raise BoundViolation("headline", detail=(
            f"{name}: observed {to_decimal(observed, DECIMALS)} > cap "
            f"{to_decimal(bound + slack, DECIMALS)} for x={rat_str(x_r)} eps={rat_str(eps_r)}"))
    if len(rows) != n - 1:
        raise InvariantViolation(f"trace holds {len(rows)} records, expected n-1 = {n - 1}")
    # chain + slack = 3/(4k) + (n-2)*3/(2(k-1)) + eps + eps/div, over 4*div*k*(k-1)
    chain = div * (3 * (fmt.k - 1) + 6 * fmt.k * (n - 2)) + 4 * (fmt.k - 1) * (div + 1) * eps.m
    if n >= 2 and 4 * div * (fmt.k - 1) * miss > chain * rd:
        raise BoundViolation("closing-chain", detail=(
            f"observed {to_decimal(Fraction(miss, fmt.k * rd), DECIMALS)} > "
            f"{to_decimal(Fraction(chain, 4 * div * fmt.k * (fmt.k - 1)), DECIMALS)}"))
    return FixAlgoResult(accfp, n, bound), rows


def trace_to_csv(records: list[TraceRecord]) -> str:
    """Render records as CSV. No field needs quoting: each is k or a p/q rational."""
    lines = [",".join(TRACE_CSV_HEADER)]
    lines += [",".join(rat_str(getattr(rec, field)) for _, field in TRACE_COLUMNS)
              for rec in records]
    return "\n".join(lines) + "\n"


def trace_to_json_obj(records: list[TraceRecord]) -> list[dict]:
    """JSON mirror of the CSV trace, half-step values included."""
    return [rec.as_dict() for rec in records]
