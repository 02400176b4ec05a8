"""Reference copy of `exact.to_decimal` as it stood with one branch per sign.

The function below scaled the value by 10**digits as a Fraction and rounded
the scaled numerator with one floor division per sign. The library now
rounds both signs with one expression on the value's own integer ratio, so
this copy, kept verbatim, is an independent oracle for
`tests/test_exact.py`: the library must print the same string for every
value and digit count.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


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
