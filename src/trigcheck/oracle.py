"""Exact-arithmetic series algorithms with their loop contracts checked as they run.

Each routine executes its imperative loop over exact rationals and re-checks
the loop-head invariant on every pass, raising InvariantViolation instead of
returning a value the invariant no longer certifies. Every cos/sin loop here
walks the heads of one Taylor recurrence, `_scaled_heads`, which carries
integer numerators over one running denominator, and differs from the others
only in its stop rule. `_checked_series` (the Taylor and range-restricted
zerone variants) checks each head by integer cross-multiplication against
powers, factorials and a partial sum of the definitional terms carried from
head to head; `pi_leibniz` sums over an integer lcm. Each builds one Fraction,
its result. The `*_unbounded` functions are the golden-data generators: plain
truncated Taylor sums, valid for any rational argument, used as ground truth
everywhere else; they read the integers and check nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .errors import ArgOutOfRange, EpsOutOfRange, NonPositiveEps, _invariant
from .exact import rat_str, to_decimal
from .value import Value


class AlgoResult(Value):
    """Result value plus the loop's iteration count and its a-priori error cap."""

    __slots__ = ("value", "iterations", "a_priori_bound")

    def as_dict(self, digits: int = 12) -> dict:
        return {
            "value": rat_str(self.value),
            "decimal": to_decimal(self.value, digits),
            "iterations": self.iterations,
            "bound": rat_str(self.a_priori_bound),
        }


# pi_leibniz checks its partial-sum clause, against a sum of the definitional
# terms carried from head to head, at heads up to this index only: carrying it
# further adds a big Fraction sum to each head's small integer update (eps =
# 1e-4 runs 20 000 heads). Later heads check the sign, and the sum holds
# inductively, as each added term is built from the checked sign and index.
FULL_SUM_CHECK_LIMIT = 64


def pi_leibniz(eps: Fraction) -> AlgoResult:
    """Approximate pi within eps by the alternating series 4*(1 - 1/3 + 1/5 - ...).

    `iterations` counts loop-body executions and equals ceil(2/eps - 3/2)
    whenever that expression is non-negative (it is for eps < 4).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    num = den = 1  # qp = num/den over den = lcm(1, 3, ..., 2n-1), unreduced
    n, sign = 1, -1
    quarter = eps / 4
    partial = Fraction(1)
    where = "pi_leibniz: invariant clause failed"
    while True:
        _invariant(sign == (1 if n % 2 == 0 else -1), where, "sign = (-1)^n")
        if n <= FULL_SUM_CHECK_LIMIT:
            _invariant(num * partial.denominator == partial.numerator * den,
                       where, "qp = sum of first n series terms")
            partial += Fraction(1 if n % 2 == 0 else -1, 2 * n + 1)
        if quarter.numerator * (2 * n + 1) >= quarter.denominator:  # guard eps/4 < 1/(2n+1)
            break
        scale = (2 * n + 1) // math.gcd(den, 2 * n + 1)  # den becomes lcm(den, 2n+1)
        den *= scale
        num = num * scale + sign * (den // (2 * n + 1))
        n += 1
        sign = -sign
    expected = max(0, math.ceil(Fraction(2) / eps - Fraction(3, 2)))
    _invariant(n - 1 == expected, where, "iterations = ceil(2/eps - 3/2)")
    return AlgoResult(4 * Fraction(num, den), n - 1, eps)


def _scaled_heads(x: Fraction, odd: bool) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Loop heads (n, sign, t, a, d, fact) of the cos (odd=False) or sin Taylor loop.

    For x = p/q, at head n >= 1 with m = 2n+s (s = 1 for sine, 0 for cosine):
    sign = (-1)^n, fact = m!, d = q^m * m!, term x^m/m! = t/d with t = p^m
    (signed for odd powers of a negative argument), and acc = a/d, the sum of
    the first n signed terms. Nothing is reduced: each step multiplies a and d
    by q^2 * (m+1)(m+2) and t by p^2. It starts from head 0, the term x^s/s!
    and an empty sum, which it does not yield. Endless; each consumer applies
    its own stop rule.
    """
    p, q = x.numerator, x.denominator
    shift = 1 if odd else 0
    n, sign, t, a, d, fact = 0, 1, p ** shift, 0, q ** shift, 1
    while True:
        a = a + t if sign > 0 else a - t
        n += 1
        sign = -sign
        step = (2 * n + shift - 1) * (2 * n + shift)
        t *= p * p
        a *= q * q * step
        d *= q * q * step
        fact *= step
        yield n, sign, t, a, d, fact


def _checked_series(x: Fraction, eps: Fraction, odd: bool, zerone: bool) -> AlgoResult:
    """The checked Taylor loop behind cos/sin_taylor and cos/sin_zerone.

    Taylor (zerone=False) stops at the first head with |term| <= eps, where
    |x| <= 2n+s and the alternating-series bound applies, and counts the terms
    accumulated after the first. Zerone requires |x| <= 1 and stops once its
    counter ep = (-1)^n * (2n)! * eps (sine: (2n+1)!) reaches |ep| >= 1, where
    eps >= 1/(2n)! >= |term| certifies the result; it reports the final n,
    min{N : (2N)! * eps >= 1} (sine: (2N+1)!).
    """
    if not 0 < eps < 1:
        raise EpsOutOfRange("0 < eps < 1", f"got {eps}")
    if zerone and not -1 <= x <= 1:
        raise ArgOutOfRange("-1 <= x <= 1", f"got {x}")
    shift = 1 if odd else 0
    name = ("sin_" if odd else "cos_") + ("zerone" if zerone else "taylor")
    where = f"{name}: invariant clause failed"
    (p, q), (e_num, e_den) = x.as_integer_ratio(), eps.as_integer_ratio()
    pn, pd = p ** shift, q ** shift  # sum of the first n definitional terms, over q^m * m!
    for n, sign, t, a, d, fact in _scaled_heads(x, odd):
        # the head invariant over the unreduced d; m!, p^m, q^m are its definitional side
        m = 2 * n + shift
        parity = 1 if n % 2 == 0 else -1
        _invariant(sign == parity, where, "sign = (-1)^n")
        def_fact = math.factorial(m)
        if zerone:
            _invariant(sign * fact == parity * def_fact,  # eps > 0 cancels
                       where, "ep = (-1)^n * (2n)! * eps scaled for parity")
        def_t, def_d = p ** m, q ** m * def_fact
        _invariant(t * def_d == def_t * d, where, "term = x^(2n)/(2n)! scaled for parity")
        pn, pd = pn * (def_d // pd), def_d
        _invariant(a * pd == pn * d, where, "accumulator = partial Taylor sum")
        pn += parity * def_t
        # zerone stops once |ep| = fact * eps >= 1, Taylor once |term| <= eps
        if not (fact * e_num < e_den if zerone else e_num * d < abs(t) * e_den):
            break
    # Taylor: |x| <= m = 2n+s holds unchecked, as |x|^m/m! = |term| <= eps < 1 and m! <= m^m
    return AlgoResult(Fraction(a, d), n if zerone else n - 1, eps)


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
    e_num, e_den = eps.numerator, eps.denominator
    # the term before head 1, x^s/s!, over q^s; stop once it is <= eps
    t_prev, d_prev = (x.numerator, x.denominator) if odd else (1, 1)
    for _, _, t, a, d, _ in _scaled_heads(x, odd):
        if abs(t_prev) * e_den <= e_num * d_prev:
            return Fraction(a, d)
        t_prev, d_prev = t, d


def cos_unbounded(x: Fraction, eps: Fraction) -> Fraction:
    """Taylor cosine partial sum truncated at the first term with |term| <= eps.

    Accepts any rational argument; this is the golden-data generator used to
    check everything else against.
    """
    return _unbounded(x, eps, odd=False)


def sin_unbounded(x: Fraction, eps: Fraction) -> Fraction:
    """Sine analog of cos_unbounded: the first term is x."""
    return _unbounded(x, eps, odd=True)
