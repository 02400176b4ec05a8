"""Closed-form facts that the checks hold the program's outputs to.

Everything here is derived by the benchmark from the paper's formulas, with
exact rationals and `struct`, and never calls trigcheck:

* the minimal term count N with (2N)! * eps >= 1 (sine: (2N+1)!);
* the a-priori cap eps + 3*n*delta / (2*(1 - delta)) and the gap cap
  (3/2)*delta / (1 - delta);
* the Leibniz iteration law ceil(2/eps - 3/2);
* the signed series term (-1)^k x^(2k[+1]) / (2k[+1])!;
* the strict binary32 Taylor cosine. One binary32 rounding of a binary64
  + - * / result is correctly rounded, because 53 >= 2*24 + 2 (S. Figueroa,
  "When is double rounding innocuous?", SIGNUM Newsletter 1995), so binary64
  arithmetic followed by a `struct` round trip reproduces each step bit for
  bit.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

_F32 = struct.Struct("<f")


def min_terms(eps: Fraction, odd: bool) -> int:
    """Least N >= 1 with (2N)! * eps >= 1, or (2N+1)! * eps >= 1 for sine."""
    n = 1
    while math.factorial(2 * n + odd) * eps < 1:
        n += 1
    return n


def taylor_iterations(x: Fraction, eps: Fraction, odd: bool) -> int:
    """Terms the plain Taylor loop adds: heads n >= 1 with eps < |term_n|."""
    n = 1
    while eps < abs(series_term(x, n, odd)):
        n += 1
    return n - 1


def fix_counter_fits(sup: Fraction, eps: Fraction, odd: bool) -> bool:
    """The fix-point routines' counter preconditions for a format with this sup."""
    n = min_terms(eps, odd)
    return n <= sup and 2 * n * (2 * n + 1 if odd else 2 * n - 1) <= sup


def error_cap(n: int, delta: Fraction, eps: Fraction) -> Fraction:
    return eps + Fraction(3 * n, 2) * delta / (1 - delta)


def gap_cap(delta: Fraction) -> Fraction:
    return Fraction(3, 2) * delta / (1 - delta)


def pi_iterations(eps: Fraction) -> int:
    return max(0, math.ceil(2 / eps - Fraction(3, 2)))


def series_term(x: Fraction, k: int, odd: bool) -> Fraction:
    power = 2 * k + odd
    return (-1) ** k * x**power / math.factorial(power)


def f32(value: float) -> float:
    return _F32.unpack(_F32.pack(value))[0]


def nearest_f32(value: Fraction) -> float:
    """The binary32 value nearest to an exact rational, ties to even."""
    bits = struct.unpack("<i", _F32.pack(f32(float(value))))[0]
    neighbours = [struct.unpack("<f", struct.pack("<i", b))[0] for b in (bits - 1, bits, bits + 1)]
    return min((c for c in neighbours if math.isfinite(c)),
               key=lambda c: (abs(Fraction(c) - value), struct.unpack("<i", _F32.pack(c))[0] & 1))


def _f32_all(values: list[float]) -> list[float]:
    packer = struct.Struct(f"<{len(values)}f")
    return list(packer.unpack(packer.pack(*values)))


def scan_f32(min_x: float, max_x: float, step: float, eps: float) -> list[tuple[float, float]]:
    """Rows (x, cos_code_in_c(x, eps)) of the binary32 scan, recomputed.

    x advances by binary32 addition; each row runs
    stc = -stc * x * x / (dn * (dn + 1)); cs += stc; dn += 2 while |stc| > eps,
    rounding every step to binary32. All rows advance together, one `struct`
    round trip per step.
    """
    xs = []
    x = min_x
    while x <= max_x:
        xs.append(x)
        x = f32(x + step)
    cs = [1.0] * len(xs)
    stc = [1.0] * len(xs)
    dn = [1.0] * len(xs)
    active = [i for i in range(len(xs)) if abs(stc[i]) > eps]
    while active:
        num = _f32_all([-stc[i] * xs[i] for i in active])
        num = _f32_all([v * xs[i] for v, i in zip(num, active)])
        dn1 = _f32_all([dn[i] + 1.0 for i in active])
        den = _f32_all([dn[i] * d for d, i in zip(dn1, active)])
        term = _f32_all([a / b for a, b in zip(num, den)])
        acc = _f32_all([cs[i] + t for t, i in zip(term, active)])
        dn2 = _f32_all([dn[i] + 2.0 for i in active])
        for j, i in enumerate(active):
            stc[i], cs[i], dn[i] = term[j], acc[j], dn2[j]
        active = [i for i in active if abs(stc[i]) > eps]
    return list(zip(xs, cs))
