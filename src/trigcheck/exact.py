"""Exact rational arithmetic substrate: literal parsing and decimal rendering.

Every value the algorithms here touch is rational, so `fractions.Fraction`
is the substrate. It already maintains the canonical form we rely on for
structural equality: positive denominator, gcd-reduced after every operation.
This module adds the two pieces Fraction lacks, exact literal parsing for the
CLI and correctly rounded decimal output.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

# Ints of at most this many bits have at most 512 decimal digits, below the
# smallest int-to-str digit limit CPython can be set to (640), so `str` on
# them never raises, whatever the process-wide limit is.
_STR_SAFE_BITS = 1700


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
    text = _int_digits(abs(units))
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def rat_str(value: Fraction) -> str:
    """Render as "p/q", or plain "p" for integers, however many digits."""
    num = _int_digits(value.numerator)
    return num if value.denominator == 1 else f"{num}/{_int_digits(value.denominator)}"


def _int_digits(n: int) -> str:
    """Decimal string of an int of any size.

    CPython's `str` refuses ints past a process-wide digit limit (4300 by
    default). Exact loop results can be longer, so large ints are split by
    `divmod` with a power of ten into halves that are rendered separately.
    """
    if n < 0:
        return "-" + _int_digits(-n)
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits (log10 2 > 3/10)
    high, low = divmod(n, 10**half)
    return _int_digits(high) + _int_digits(low).rjust(half, "0")
