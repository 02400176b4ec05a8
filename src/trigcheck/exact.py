"""Exact rational arithmetic substrate: literal parsing and decimal rendering.

Every value the algorithms here touch is rational, so `fractions.Fraction`
is the substrate. It already maintains the canonical form we rely on for
structural equality: positive denominator, gcd-reduced after every operation.
This module adds the two pieces Fraction lacks, exact literal parsing for the
CLI and correctly rounded decimal output.

Ints are rendered as `str(Decimal(n))`: C `decimal` converts an int of any
size without consulting CPython's int-to-str digit limit (4300 by default),
which exact loop results can exceed.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a decimal literal read exactly ("0.05" is 1/20)."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None


def to_decimal(value: Fraction | int, digits: int) -> str:
    """Decimal string with `digits` fractional digits, rounded to nearest.

    Ties round away from zero: (1/2, 0) -> "1", (-1/2, 0) -> "-1".
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    value = Fraction(value)
    scaled = value * 10**digits
    p, q = scaled.numerator, scaled.denominator
    if p >= 0:
        units = (2 * p + q) // (2 * q)
    else:
        units = -((-2 * p + q) // (2 * q))
    sign = "-" if units < 0 else ""
    text = str(Decimal(abs(units)))
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def rat_str(value: Fraction) -> str:
    """Render as "p/q", or plain "p" for integers, however many digits."""
    num, den = str(Decimal(value.numerator)), str(Decimal(value.denominator))
    return num if den == "1" else f"{num}/{den}"

