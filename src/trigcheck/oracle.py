"""Exact-arithmetic series algorithms with their loop contracts checked as they run.

Each routine executes its imperative loop over `Fraction` values and re-checks
the loop-head invariant on every pass, raising InvariantViolation instead of
returning a value the invariant no longer certifies. Every cos/sin loop here
walks the loop heads of one Taylor recurrence, `_heads`, and differs from the
others only in its stop rule; the fix-point tracer's exact twin takes its terms
and sums from `_heads` too, and its counter from the definition (2n+s)! * eps.
The Taylor and range-restricted (zerone) variants check each head in the
loop of `_checked_series`, whose accumulator clause compares against a partial
sum of the definitional terms carried from head to head. The `*_unbounded`
functions are the golden-data generators: plain truncated Taylor sums, valid
for any rational argument, used as ground truth everywhere else; they check
nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArgOutOfRange,
    EpsOutOfRange,
    InvariantViolation,
    NonPositiveEps,
)
from .exact import rat_str, to_decimal

@dataclass(frozen=True)
class AlgoResult:
    """Result value plus the loop's iteration count and its a-priori error cap."""

    value: Fraction
    iterations: int
    a_priori_bound: Fraction

    def as_dict(self, digits: int = 12) -> dict:
        return {
            "value": rat_str(self.value),
            "decimal": to_decimal(self.value, digits),
            "iterations": self.iterations,
            "bound": rat_str(self.a_priori_bound),
        }


def _invariant(condition: bool, where: str, clause: str) -> None:
    if not condition:
        raise InvariantViolation(f"{where}: invariant clause failed: {clause}")


# pi_leibniz checks its partial-sum clause, against a sum of the definitional
# terms carried from head to head, at heads up to this index only: carrying it
# further doubles the loop's big Fraction additions (eps = 1e-4 runs 20 000
# heads). Later heads still check the sign, and the sum then holds inductively,
# as each term the loop adds is built from the checked sign and index.
FULL_SUM_CHECK_LIMIT = 64


def pi_leibniz(eps: Fraction) -> AlgoResult:
    """Approximate pi within eps by the alternating series 4*(1 - 1/3 + 1/5 - ...).

    `iterations` counts loop-body executions and equals ceil(2/eps - 3/2)
    whenever that expression is non-negative (it is for eps < 4).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    qp = Fraction(1)
    n = 1
    sign = -1
    quarter = eps / 4
    partial = Fraction(1)
    while True:
        _invariant(sign == (1 if n % 2 == 0 else -1), "pi_leibniz", "sign = (-1)^n")
        if n <= FULL_SUM_CHECK_LIMIT:
            _invariant(qp == partial, "pi_leibniz", "qp = sum of first n series terms")
            partial += Fraction(1 if n % 2 == 0 else -1, 2 * n + 1)
        # guard eps/4 < 1/(2n+1), done in integers to keep heads cheap
        if quarter.numerator * (2 * n + 1) >= quarter.denominator:
            break
        qp += Fraction(sign, 2 * n + 1)
        n += 1
        sign = -sign
    expected = max(0, math.ceil(Fraction(2) / eps - Fraction(3, 2)))
    _invariant(n - 1 == expected, "pi_leibniz", "iterations = ceil(2/eps - 3/2)")
    return AlgoResult(4 * qp, n - 1, eps)


def _heads(x: Fraction, odd: bool) -> Iterator[tuple[int, int, Fraction, Fraction, int]]:
    """Loop heads (n, sign, term, acc, fact) of the cos (odd=False) or sin Taylor loop.

    At head n >= 1: sign = (-1)^n, term = x^(2n+s)/(2n+s)! (signed for odd
    powers of a negative argument), acc = the sum of the first n signed terms
    and fact = (2n+s)!, with s = 1 for sine and 0 for cosine. Endless; each
    consumer applies its own stop rule.
    """
    shift = 1 if odd else 0
    x2 = x * x
    acc = x if odd else Fraction(1)
    term = x2 * x / 6 if odd else x2 / 2
    fact = 6 if odd else 2
    n = 1
    sign = -1
    while True:
        yield n, sign, term, acc, fact
        acc = acc + term if sign > 0 else acc - term
        n += 1
        sign = -sign
        step = (2 * n + shift - 1) * (2 * n + shift)
        term = term * x2 / step
        fact *= step


def _checked_series(x: Fraction, eps: Fraction, odd: bool, zerone: bool) -> AlgoResult:
    """The checked Taylor loop behind cos/sin_taylor and cos/sin_zerone.

    Taylor (zerone=False) stops at the first head whose term has |term| <= eps
    and counts the terms accumulated after the first; there |x| <= 2n+s, so
    the alternating-series bound applies. Zerone requires |x| <= 1 and
    does not test the term: it stops once its counter
    ep = (-1)^n * (2n)! * eps (sine: (2n+1)!) reaches |ep| >= 1, at which point
    eps >= 1/(2n)! >= |term| certifies the result, and reports the final n,
    min{N : (2N)! * eps >= 1} (sine: (2N+1)!).
    """
    name = ("sin_" if odd else "cos_") + ("zerone" if zerone else "taylor")
    if not 0 < eps < 1:
        raise EpsOutOfRange("0 < eps < 1", f"got {eps}")
    if zerone and not -1 <= x <= 1:
        raise ArgOutOfRange("-1 <= x <= 1", f"got {x}")
    shift = 1 if odd else 0
    # the sum of the first n definitional terms, carried from head to head
    partial = x ** shift / math.factorial(shift)
    for n, sign, term, acc, fact in _heads(x, odd):
        # the loop-head invariant; (2n+s)! and x^(2n+s) are its definitional side
        parity = 1 if n % 2 == 0 else -1
        _invariant(sign == parity, name, "sign = (-1)^n")
        def_fact = math.factorial(2 * n + shift)
        if zerone:
            ep = sign * fact * eps
            _invariant(ep == parity * def_fact * eps,
                       name, "ep = (-1)^n * (2n)! * eps scaled for parity")
        def_term = x ** (2 * n + shift) / def_fact
        _invariant(term == def_term, name, "term = x^(2n)/(2n)! scaled for parity")
        _invariant(acc == partial, name, "accumulator = partial Taylor sum")
        partial += parity * def_term
        if not (abs(ep) < 1 if zerone else eps < abs(term)):
            break
    if zerone:
        return AlgoResult(acc, n, eps)
    # |x| <= m = 2n+s holds unchecked: |x|^m/m! = |term| <= eps < 1 and m! <= m^m
    return AlgoResult(acc, n - 1, eps)


def cos_taylor(x: Fraction, eps: Fraction) -> AlgoResult:
    """Taylor cosine in exact rationals: |result - cos x| <= eps for 0 < eps < 1."""
    return _checked_series(Fraction(x), Fraction(eps), odd=False, zerone=False)


def sin_taylor(x: Fraction, eps: Fraction) -> AlgoResult:
    """Taylor sine in exact rationals: |result - sin x| <= eps for 0 < eps < 1."""
    return _checked_series(Fraction(x), Fraction(eps), odd=True, zerone=False)


def cos_zerone(x: Fraction, eps: Fraction) -> AlgoResult:
    """Cosine on [-1, 1] with the factorial stop counter; |result - cos x| <= eps."""
    return _checked_series(Fraction(x), Fraction(eps), odd=False, zerone=True)


def sin_zerone(x: Fraction, eps: Fraction) -> AlgoResult:
    """Sine on [-1, 1] with the factorial stop counter; |result - sin x| <= eps."""
    return _checked_series(Fraction(x), Fraction(eps), odd=True, zerone=True)


def _unbounded(x: Fraction, eps: Fraction, odd: bool) -> Fraction:
    x = Fraction(x)
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    previous = x if odd else Fraction(1)
    for _, _, term, acc, _ in _heads(x, odd):
        if abs(previous) <= eps:
            return acc
        previous = term


def cos_unbounded(x: Fraction, eps: Fraction) -> Fraction:
    """Taylor cosine partial sum truncated at the first term with |term| <= eps.

    Accepts any rational argument; this is the golden-data generator used to
    check everything else against.
    """
    return _unbounded(x, eps, odd=False)


def sin_unbounded(x: Fraction, eps: Fraction) -> Fraction:
    """Sine analog of cos_unbounded: the first term is x."""
    return _unbounded(x, eps, odd=True)
