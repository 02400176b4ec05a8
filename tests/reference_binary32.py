"""Reference copy of the binary32 loop as it ran on numpy float32 scalars.

`cos_code_in_c` and `scan_table` below are the library's routines as they
stood before it dropped numpy, kept verbatim apart from the numpy loading
and the stop at an infinite term, which names the iteration that made it,
as the library does:
every arithmetic step is performed on numpy float32 scalars, so each
intermediate result rounds to IEEE binary32 (round to nearest, ties to even).
They are oracles for `tests/test_binary32_reference.py`: the library must
return the same bits and raise the same exceptions with the same messages.
"""

from __future__ import annotations

import numpy as np

from trigcheck.errors import IterationCapExceeded, NonPositiveEps
from trigcheck.floatrepro import iteration_cap

F32 = np.float32
_ONE = F32(1.0)
_TWO = F32(2.0)


def cos_code_in_c(x: np.float32, eps: np.float32, cap: int | None = None) -> np.float32:
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
        if np.isinf(stc):
            raise IterationCapExceeded(
                f"no convergence: term overflowed to infinity at iteration {count}")
        if count >= cap:
            raise IterationCapExceeded(f"no convergence within {cap} iterations")
        stc = -stc * x * x / (dn * (dn + _ONE))
        cs = cs + stc
        dn = dn + _TWO
        count += 1
    return cs


def scan_table(min_x: np.float32, max_x: np.float32, step: np.float32,
               eps: np.float32, cap: int | None = None) -> list[tuple[np.float32, np.float32]]:
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
