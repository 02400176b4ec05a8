"""Strict binary32 Taylor cosine and the scan harness that exposes its blow-up.

A binary32 value is a Python float that holds one. Each step computes in
binary64, then rounds once to binary32 (ties to even; an overflow gives an
infinity) by a store to and a load from a 4-byte buffer. For + - * / that is
innocuous, as 53 >= 2*24 + 2 (S. Figueroa, "When is double rounding
innocuous?", SIGNUM Newsletter 1995). Host values parse through binary64, as
numpy parses them. The scan's abscissa drifts in binary32 as the original did.
"""

from __future__ import annotations

import os
from decimal import ROUND_HALF_EVEN, ROUND_UP, Context

from .errors import IterationCapExceeded, NonPositiveEps

DEFAULT_ITERATION_CAP = 1_000_000
ITERATION_CAP_ENV = "TRIGCHECK_ITER_CAP"
SCAN_ROW_BUDGET = 100_000


def iteration_cap() -> int:
    """Default cap, overridable through the environment."""
    raw = os.environ.get(ITERATION_CAP_ENV)
    if raw is None:
        return DEFAULT_ITERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected below with the same message
    if cap <= 0:
        raise ValueError(f"{ITERATION_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def f32(value: float | str | int) -> float:
    """Round a host value to binary32 once, up front."""
    r = memoryview(bytearray(4)).cast("f")
    r[0] = float(value)
    return r[0]


def _f32_str(value: float) -> str:
    """str(numpy.float32(value)): the fewest digits that read back (nearest first,
    then away from zero, the wide side of a power of two), positional in
    [1e-4, 1e6). Nine digits read back every binary32 value but NaN."""
    for digits in range(1, 10):
        for rounding in (ROUND_HALF_EVEN, ROUND_UP):
            shortest = float(Context(digits, rounding).create_decimal(value))
            if f32(shortest) == value:
                positional = value == 0 or 1e-4 <= abs(value) < 1e6
                return repr(shortest) if positional else f"{shortest:.{digits - 1}e}"
    return "nan"


def cos_code_in_c(x: float, eps: float, cap: int | None = None) -> float:
    """Series cosine exactly as a compiled C float loop would run it.

    stc = -stc * x * x / (dn * (dn + 1)) is evaluated left to right, every
    operation rounding to binary32; then cs += stc and dn += 2, each rounded
    too, looping while |stc| > eps.
    """
    r = memoryview(bytearray(4)).cast("f")
    r[0] = float(x)
    x = r[0]
    r[0] = float(eps)
    eps = r[0]
    if not eps > 0:
        raise NonPositiveEps("eps > 0", f"got {_f32_str(eps)}")
    if cap is None:
        cap = iteration_cap()
    cs = stc = dn = 1.0
    count = 0
    inf = float("inf")
    while eps < abs(stc) < inf:
        if count >= cap:
            raise IterationCapExceeded(f"no convergence within {cap} iterations")
        r[0] = -stc * x
        r[0] = r[0] * x
        num = r[0]
        r[0] = dn + 1.0
        r[0] = dn * r[0]
        r[0] = num / r[0]
        stc = r[0]
        r[0] = cs + stc
        cs = r[0]
        r[0] = dn + 2.0
        dn = r[0]
        count += 1
    if abs(stc) == inf:  # an infinite term never falls to eps
        raise IterationCapExceeded(
            f"no convergence: term overflowed to infinity at iteration {count}")
    return cs


def scan_table(min_x: float, max_x: float, step: float,
               eps: float, cap: int | None = None) -> list[tuple[float, float]]:
    """Evaluate cos_code_in_c over an inclusive binary32-accumulated grid.

    Returns (x, value) rows; x advances by binary32 addition so the printed
    abscissas drift the same way the original test harness drifted. A step
    too small to change x in binary32 would repeat the same row forever, so
    it raises ValueError instead, as does a scan past SCAN_ROW_BUDGET rows.
    """
    min_x = f32(min_x)
    max_x = f32(max_x)
    step = f32(step)
    if not step > 0:
        raise ValueError("step must be positive")
    if not min_x <= max_x:
        raise ValueError("min must not exceed max")
    if cap is None:
        cap = iteration_cap()
    r = memoryview(bytearray(4)).cast("f")
    rows: list[tuple[float, float]] = []
    x = min_x
    while x <= max_x:
        if len(rows) == SCAN_ROW_BUDGET:
            raise ValueError(f"scan exceeds the budget of {SCAN_ROW_BUDGET} rows")
        rows.append((x, cos_code_in_c(x, eps, cap=cap)))
        r[0] = x + step
        if r[0] == x:
            raise ValueError(f"step {_f32_str(step)} leaves x = {_f32_str(x)} "
                             "unchanged in binary32")
        x = r[0]
    return rows
