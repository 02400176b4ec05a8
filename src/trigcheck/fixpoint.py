"""A grid fix-point datatype: multiples of a step 1/k confined to [inf, sup].

Addition and subtraction are exact whenever the mathematical result stays in
range, and raise RangeOverflow otherwise; they never round. Multiplication
and division round the exact rational result to the nearest grid value, ties
to the even multiple (Gaussian rounding), so their error never exceeds half a
step while the exact result is in range, and they are exact whenever the
exact result already lies on the grid. Because the step divides 1, every
integer inside [inf, sup] is itself a grid value, which the series algorithms
exploit for exact counter scaling.

A value is stored as its integer multiple m of the step, and the kernel has
two rules, on integers alone. `+`, `-` and unary `-` give an exact m, which
the constructor, the one range check for exact results, keeps in
[m_inf, m_sup]. `*` and `/` give an exact n/d steps with d > 0, which
`_rounded` keeps in [m_inf*d, m_sup*d] and rounds once, ties to even.

Both classes are immutable `Value` records, compared by (k, inf, sup) and
(m, fmt); FixNum, built by every operation, sets its slots' descriptors itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatMismatch, RangeOverflow
from .exact import parse_rational, rat_str, to_decimal
from .value import Value

_FORMAT_RE = re.compile(r"^1/(\d+):\[([^,\]]+),([^,\]]+)\]$")


class FixFormat(Value):
    """Grid parameters: step 1/k with k >= 2, bounds inf < 0 < sup on the grid."""

    __slots__ = ("k", "inf", "sup", "m_inf", "m_sup")
    _fields = ("k", "inf", "sup")

    def __init__(self, k: int, inf: Fraction, sup: Fraction) -> None:
        inf, sup = Fraction(inf), Fraction(sup)
        if k < 2:
            raise ValueError("k must be at least 2 so the step is below 1")
        if not (inf < 0 < sup):
            raise ValueError("bounds must satisfy inf < 0 < sup")
        if (inf * k).denominator != 1 or (sup * k).denominator != 1:
            raise ValueError("inf and sup must be multiples of the step 1/k")
        super().__init__(k, inf, sup, int(inf * k), int(sup * k))

    @property
    def step(self) -> Fraction:
        return Fraction(1, self.k)

    def exact(self, value: Fraction | int) -> FixNum:
        """Embed a rational that is already on the grid; raise if it is not."""
        value = Fraction(value)
        scaled = value * self.k
        if scaled.denominator != 1:
            raise ValueError(f"{value} is not a multiple of 1/{self.k}")
        return FixNum(int(scaled), self)

    def from_int(self, i: int) -> FixNum:
        return FixNum(i * self.k, self)

    def from_rat(self, value: Fraction | int) -> FixNum:
        """Round a rational to the nearest grid value (ties to even multiple).

        Inputs in (sup, sup + step/2] and [inf - step/2, inf) still have a
        nearest grid value (the boundary itself, within half a step), so they
        round to it; anything further out raises RangeOverflow.
        """
        value = Fraction(value)
        half = self.step / 2
        if value > self.sup:
            if value <= self.sup + half:
                return FixNum(self.m_sup, self)
            raise RangeOverflow(f"{value} exceeds sup={self.sup} by more than step/2")
        if value < self.inf:
            if value >= self.inf - half:
                return FixNum(self.m_inf, self)
            raise RangeOverflow(f"{value} undershoots inf={self.inf} by more than step/2")
        return FixNum(round(value * self.k), self)

    @classmethod
    def parse(cls, text: str) -> FixFormat:
        """Parse a format literal like "1/256:[-8,64]"."""
        match = _FORMAT_RE.match(text.strip())
        if not match:
            raise ValueError(f"not a format literal (want '1/k:[inf,sup]'): {text!r}")
        k = int(match.group(1))
        return cls(k, parse_rational(match.group(2)), parse_rational(match.group(3)))

    def __str__(self) -> str:
        return f"1/{self.k}:[{rat_str(self.inf)},{rat_str(self.sup)}]"


class FixNum(Value):
    """A grid value m * (1/k). Arithmetic follows the format's rounding rules."""

    __slots__ = ("m", "fmt")

    def __init__(self, m: int, fmt: FixFormat) -> None:
        if not (fmt.m_inf <= m <= fmt.m_sup):
            raise RangeOverflow(f"{m}/{fmt.k} outside [{fmt.inf}, {fmt.sup}]")
        _set_m(self, m)
        _set_fmt(self, fmt)

    def to_rat(self) -> Fraction:
        return Fraction(self.m, self.fmt.k)

    def _require_same_format(self, other: FixNum) -> None:
        if not isinstance(other, FixNum):
            raise TypeError(f"expected FixNum, got {type(other).__name__}")
        if other.fmt is not self.fmt and other.fmt != self.fmt:
            raise FormatMismatch(f"operand formats differ: {self.fmt} vs {other.fmt}")

    def __add__(self, other: FixNum) -> FixNum:
        self._require_same_format(other)
        return FixNum(self.m + other.m, self.fmt)

    def __sub__(self, other: FixNum) -> FixNum:
        self._require_same_format(other)
        return FixNum(self.m - other.m, self.fmt)

    def __neg__(self) -> FixNum:
        return FixNum(-self.m, self.fmt)

    def __mul__(self, other: FixNum) -> FixNum:
        self._require_same_format(other)
        return self._rounded(self.m * other.m, self.fmt.k, "product")

    def __truediv__(self, other: FixNum) -> FixNum:
        self._require_same_format(other)
        if other.m == 0:
            raise ZeroDivisionError("fix-point division by zero")
        p, q = (self.m, other.m) if other.m > 0 else (-self.m, -other.m)
        return self._rounded(self.fmt.k * p, q, "quotient")

    def _rounded(self, n: int, d: int, what: str) -> FixNum:
        # the exact result is n/d steps with d > 0, in range iff m_inf*d <= n <= m_sup*d
        fmt = self.fmt
        if not (fmt.m_inf * d <= n <= fmt.m_sup * d):
            raise RangeOverflow(f"exact {what} {Fraction(n, d * fmt.k)} leaves range")
        return FixNum(_round_half_even(n, d), fmt)

    # no __gt__/__ge__: Python reflects a > b to b < a and a >= b to b <= a
    def __lt__(self, other: FixNum) -> bool:
        self._require_same_format(other)
        return self.m < other.m

    def __le__(self, other: FixNum) -> bool:
        self._require_same_format(other)
        return self.m <= other.m

    def __str__(self) -> str:
        digits = _power_of_ten_exponent(self.fmt.k)
        if digits is None:
            return f"{self.m}/{self.fmt.k}"
        return to_decimal(self.to_rat(), digits)


_set_m, _set_fmt = FixNum._setters  # FixNum is built on every operation


def _round_half_even(p: int, q: int) -> int:
    """The integer nearest to p/q for q > 0, ties to the even one."""
    d, r = divmod(p, q)
    if 2 * r > q or (2 * r == q and d % 2):
        d += 1
    return d


def _power_of_ten_exponent(k: int) -> int | None:
    j = 0
    while k % 10 == 0:
        k //= 10
        j += 1
    return j if k == 1 else None
