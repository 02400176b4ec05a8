"""Reference copies of the grid embeddings `FixFormat.exact` and `FixFormat.from_rat`.

Each function below is the method as it stood while it compared and scaled
Fractions: `exact` tested the scaled value's denominator, and `from_rat`
compared the value against sup + step/2 and inf - step/2 and rounded with
`round(Fraction)`, Python's own ties-to-even rule. The library now states
both on integer steps and rounds with `fixpoint._round_half_even`, the rule
`*` and `/` use, so these copies, kept verbatim apart from taking the format
as an argument, are an independent oracle for `tests/test_fixpoint_kernel.py`:
the library must return the same grid values and raise the same exceptions
with the same messages. `in_range` is the one Fraction range predicate that
the fix-point tests share.
"""

from __future__ import annotations

from fractions import Fraction

from trigcheck import FixFormat, FixNum
from trigcheck.errors import RangeOverflow


def in_range(fmt: FixFormat, value: Fraction) -> bool:
    return fmt.inf <= value <= fmt.sup


def exact(fmt: FixFormat, value: Fraction | int) -> FixNum:
    """Embed a rational that is already on the grid; raise if it is not."""
    value = Fraction(value)
    scaled = value * fmt.k
    if scaled.denominator != 1:
        raise ValueError(f"{value} is not a multiple of 1/{fmt.k}")
    return FixNum(int(scaled), fmt)


def from_rat(fmt: FixFormat, value: Fraction | int) -> FixNum:
    """Round a rational to the nearest grid value (ties to even multiple).

    Inputs in (sup, sup + step/2] and [inf - step/2, inf) still have a
    nearest grid value (the boundary itself, within half a step), so they
    round to it; anything further out raises RangeOverflow.
    """
    value = Fraction(value)
    half = fmt.step / 2
    if value > fmt.sup:
        if value <= fmt.sup + half:
            return FixNum(fmt.m_sup, fmt)
        raise RangeOverflow(f"{value} exceeds sup={fmt.sup} by more than step/2")
    if value < fmt.inf:
        if value >= fmt.inf - half:
            return FixNum(fmt.m_inf, fmt)
        raise RangeOverflow(f"{value} undershoots inf={fmt.inf} by more than step/2")
    return FixNum(round(value * fmt.k), fmt)
