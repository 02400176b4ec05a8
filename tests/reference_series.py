"""Reference copies of the series loops the library once wrote out one by one.

Each function below is the loop as it stood before the library drew every
cos/sin Taylor loop from one generator of loop heads (`oracle._scaled_heads`):
the checked Taylor and range-restricted (zerone) cores with their head
checks, the two unbounded golden-data generators, the exact twin that the
fix-point tracer ran beside its fix-point loop, and the two term counters.
`pi_leibniz` is the loop as it stood while it re-summed its partial-sum
clause from scratch at every head up to 64. They are kept verbatim, apart
from names, as oracles for
`tests/test_series_reference.py`: the library must return the same values
and counts, and raise the same exceptions with the same messages.
"""

from __future__ import annotations

import math
from fractions import Fraction

from trigcheck.errors import (
    ArgOutOfRange,
    EpsOutOfRange,
    InvariantViolation,
    NonPositiveEps,
)
from trigcheck.oracle import AlgoResult

FULL_SUM_CHECK_LIMIT = 64


def _invariant(condition: bool, where: str, clause: str) -> None:
    if not condition:
        raise InvariantViolation(f"{where}: invariant clause failed: {clause}")


def taylor_core(x: Fraction, eps: Fraction, odd: bool) -> AlgoResult:
    name = "sin_taylor" if odd else "cos_taylor"
    if not 0 < eps < 1:
        raise EpsOutOfRange("0 < eps < 1", f"got {eps}")
    x2 = x * x
    acc = x if odd else Fraction(1)
    term = x2 * x / 6 if odd else x2 / 2
    n = 1
    sign = -1
    iterations = 0
    while True:
        check_taylor_head(name, x, n, sign, term, acc, odd)
        if not eps < abs(term):
            break
        acc += sign * term
        n += 1
        sign = -sign
        term = term * x2 / ((2 * n) * (2 * n + 1 if odd else 2 * n - 1))
        iterations += 1
    # alternating-series applicability at the exit path
    limit = 2 * n + 1 if odd else 2 * n
    _invariant(x2 <= limit * limit, name, f"|x| <= {limit} at exit")
    return AlgoResult(acc, iterations, eps)


def check_taylor_head(name: str, x: Fraction, n: int, sign: int,
                      term: Fraction, acc: Fraction, odd: bool) -> None:
    _invariant(sign == (1 if n % 2 == 0 else -1), name, "sign = (-1)^n")
    shift = 1 if odd else 0
    expected_term = x ** (2 * n + shift) / math.factorial(2 * n + shift)
    _invariant(term == expected_term, name, "term = x^(2n)/(2n)! scaled for parity")
    if n <= FULL_SUM_CHECK_LIMIT:
        partial = sum(
            Fraction(1 if m % 2 == 0 else -1)
            * x ** (2 * m + shift) / math.factorial(2 * m + shift)
            for m in range(n)
        )
        _invariant(acc == partial, name, "accumulator = partial Taylor sum")


def cos_taylor(x, eps) -> AlgoResult:
    return taylor_core(Fraction(x), Fraction(eps), odd=False)


def sin_taylor(x, eps) -> AlgoResult:
    return taylor_core(Fraction(x), Fraction(eps), odd=True)


def zerone_core(x: Fraction, eps: Fraction, odd: bool) -> AlgoResult:
    name = "sin_zerone" if odd else "cos_zerone"
    if not 0 < eps < 1:
        raise EpsOutOfRange("0 < eps < 1", f"got {eps}")
    if not -1 <= x <= 1:
        raise ArgOutOfRange("-1 <= x <= 1", f"got {x}")
    x2 = x * x
    acc = x if odd else Fraction(1)
    term = x2 * x / 6 if odd else x2 / 2
    ep = -6 * eps if odd else -2 * eps
    n = 1
    sign = -1
    while True:
        check_zerone_head(name, x, eps, n, sign, term, acc, ep, odd)
        if not abs(ep) < 1:
            break
        acc += sign * term
        n += 1
        sign = -sign
        if odd:
            term = term * x2 / ((2 * n) * (2 * n + 1))
            ep = -ep * (2 * n) * (2 * n + 1)
        else:
            term = term * x2 / ((2 * n - 1) * (2 * n))
            ep = -ep * (2 * n - 1) * (2 * n)
    return AlgoResult(acc, n, eps)


def check_zerone_head(name: str, x: Fraction, eps: Fraction, n: int, sign: int,
                      term: Fraction, acc: Fraction, ep: Fraction, odd: bool) -> None:
    shift = 1 if odd else 0
    parity = 1 if n % 2 == 0 else -1
    _invariant(sign == parity, name, "sign = (-1)^n")
    _invariant(ep == parity * math.factorial(2 * n + shift) * eps,
               name, "ep = (-1)^n * (2n)! * eps scaled for parity")
    _invariant(term == x ** (2 * n + shift) / math.factorial(2 * n + shift),
               name, "term = x^(2n)/(2n)! scaled for parity")
    partial = sum(
        Fraction(1 if m % 2 == 0 else -1)
        * x ** (2 * m + shift) / math.factorial(2 * m + shift)
        for m in range(n)
    )
    _invariant(acc == partial, name, "accumulator = partial Taylor sum")


def cos_zerone(x, eps) -> AlgoResult:
    return zerone_core(Fraction(x), Fraction(eps), odd=False)


def sin_zerone(x, eps) -> AlgoResult:
    return zerone_core(Fraction(x), Fraction(eps), odd=True)


def cos_unbounded(x: Fraction, eps: Fraction) -> Fraction:
    x = Fraction(x)
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    a = Fraction(1)
    s = Fraction(1)
    k = 0
    while abs(a) > eps:
        a = -(a * x * x) / ((k + 1) * (k + 2))
        s += a
        k += 2
    return s


def sin_unbounded(x: Fraction, eps: Fraction) -> Fraction:
    x = Fraction(x)
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    a = x
    s = x
    k = 1
    while abs(a) > eps:
        a = -(a * x * x) / ((k + 1) * (k + 2))
        s += a
        k += 2
    return s


def exact_twin(x_r: Fraction, eps_r: Fraction, odd: bool) -> list[tuple]:
    """The exact loop of the fix-point tracer, lifted out of the fix-point one.

    Returns one (k, signed term, sum, counter, half-step term) tuple per
    accumulated term, the exact fields of the tracer's records. Its guard
    is the exact counter's, which the tracer requires to agree with the
    fix-point guard at every head.
    """
    shift = 1 if odd else 0
    k = 1
    ep_e = (-6 if odd else -2) * eps_r
    acc_e = x_r if odd else Fraction(1)
    tc_e = -(x_r * x_r) * (x_r if odd else 1) / (6 if odd else 2)
    records = []
    while abs(ep_e) < 1:
        head = (k, tc_e, acc_e, ep_e)
        acc_e = acc_e + tc_e
        k += 1
        fac1 = 2 * k + shift - 1   # 2k-1 for cosine, 2k for sine
        fac2 = 2 * k + shift       # 2k for cosine, 2k+1 for sine
        ep_e = -ep_e * fac1 * fac2
        tc_half = tc_e * x_r / fac1
        tc_e = -tc_half * x_r / fac2
        records.append((*head, tc_half))
    return records


def cos_term_count(eps: Fraction) -> int:
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = 1
    fact = 2
    while fact * eps < 1:
        n += 1
        fact *= (2 * n - 1) * (2 * n)
    return n


def sin_term_count(eps: Fraction) -> int:
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = 1
    fact = 6
    while fact * eps < 1:
        n += 1
        fact *= (2 * n) * (2 * n + 1)
    return n


def pi_leibniz(eps: Fraction) -> AlgoResult:
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEps("eps > 0", f"got {eps}")
    qp = Fraction(1)
    n = 1
    sign = -1
    iterations = 0
    quarter = eps / 4
    while True:
        _invariant(sign == (1 if n % 2 == 0 else -1), "pi_leibniz", "sign = (-1)^n")
        if n <= FULL_SUM_CHECK_LIMIT:
            partial = sum(Fraction(1 if m % 2 == 0 else -1, 2 * m + 1) for m in range(n))
            _invariant(qp == partial, "pi_leibniz", "qp = sum of first n series terms")
        # guard eps/4 < 1/(2n+1), done in integers to keep heads cheap
        if quarter.numerator * (2 * n + 1) >= quarter.denominator:
            break
        qp += Fraction(sign, 2 * n + 1)
        n += 1
        sign = -sign
        iterations += 1
    expected = max(0, math.ceil(Fraction(2) / eps - Fraction(3, 2)))
    _invariant(iterations == expected, "pi_leibniz", "iterations = ceil(2/eps - 3/2)")
    return AlgoResult(4 * qp, iterations, eps)
