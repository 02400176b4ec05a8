"""Strict binary32 Taylor cosine and the scan harness that exposes its blow-up.

Every arithmetic step is performed on numpy float32 scalars, so each
intermediate result rounds to IEEE binary32 (round to nearest, ties to even)
with no fused multiply-add and no wider intermediates. The scan accumulates
its abscissa in binary32 too, drifting exactly the way the original
single-precision loop does. Two runs produce bit-identical output.

numpy is imported the first time one of these routines runs, so a process
that only uses the exact or fix-point layers never loads it.
"""

from __future__ import annotations

import os

from .errors import IterationCapExceeded, NonPositiveEps


def _load_numpy(value):
    """Import numpy, bind np, F32, _ONE and _TWO, then convert value.

    F32 starts out as this function. Every routine below converts its
    arguments through F32 before any other step, so its first call loads
    numpy and later calls reach numpy.float32 directly, with no check.
    """
    global np, F32, _ONE, _TWO
    import numpy as np

    F32 = np.float32
    _ONE = F32(1.0)
    _TWO = F32(2.0)
    return F32(value)


F32 = _load_numpy

DEFAULT_ITERATION_CAP = 1_000_000
ITERATION_CAP_ENV = "TRIGCHECK_ITER_CAP"


def iteration_cap() -> int:
    """Default cap, overridable through the environment."""
    raw = os.environ.get(ITERATION_CAP_ENV)
    if raw is None:
        return DEFAULT_ITERATION_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError(f"{ITERATION_CAP_ENV} must be positive, got {raw!r}")
    return cap


def f32(value: float | str | int) -> np.float32:
    """Round a host value to binary32 once, up front."""
    return F32(value)


def cos_code_in_c(x: np.float32, eps: np.float32, cap: int | None = None) -> np.float32:
    """Series cosine exactly as a compiled C float loop would run it.

    The signed term update is evaluated left to right,
    stc = -stc * x * x / (dn * (dn + 1)), each product and the quotient
    rounding to binary32 before the next step; then cs += stc and dn += 2,
    looping while |stc| > eps.
    """
    x = F32(x)
    eps = F32(eps)
    if not eps > 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    if cap is None:
        cap = iteration_cap()
    cs = _ONE
    stc = _ONE
    dn = _ONE
    count = 0
    while np.abs(stc) > eps:
        if count >= cap:
            raise IterationCapExceeded(f"no convergence within {cap} iterations")
        stc = -stc * x * x / (dn * (dn + _ONE))
        cs = cs + stc
        dn = dn + _TWO
        count += 1
    return cs


def scan_table(min_x: np.float32, max_x: np.float32, step: np.float32,
               eps: np.float32, cap: int | None = None) -> list[tuple[np.float32, np.float32]]:
    """Evaluate cos_code_in_c over an inclusive binary32-accumulated grid.

    Returns (x, value) rows; x advances by binary32 addition so the printed
    abscissas drift the same way the original test harness drifted. A step
    too small to change x in binary32 would repeat the same row forever, so
    it raises ValueError instead.
    """
    min_x = F32(min_x)
    max_x = F32(max_x)
    step = F32(step)
    if not step > 0:
        raise ValueError("step must be positive")
    if not min_x <= max_x:
        raise ValueError("min must not exceed max")
    eps = F32(eps)
    rows: list[tuple[np.float32, np.float32]] = []
    x = min_x
    while x <= max_x:
        rows.append((x, cos_code_in_c(x, eps, cap=cap)))
        advanced = x + step
        if advanced == x:
            raise ValueError(f"step {step!s} leaves x = {x!s} unchanged in binary32")
        x = advanced
    return rows
