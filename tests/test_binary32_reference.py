"""The stdlib binary32 loop against numpy float32, bit for bit.

numpy is a test-only oracle here. The library rounds each binary64 result
once to binary32; numpy rounds in binary32 itself. Both must give the same
bits for + - * / (subnormals, ties and overflow to an infinity included),
for parsing, for whole scans and single rows, and the same exceptions with
the same messages.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np
import pytest

import reference_binary32 as ref
from trigcheck.errors import IterationCapExceeded, NonPositiveEps
from trigcheck.floatrepro import _f32_str, cos_code_in_c, f32, scan_table

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def from_bits(bits: int) -> np.float32:
    return np.array([bits], dtype=np.uint32).view(np.float32)[0]


def float64_from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def same(ours: float, theirs) -> bool:
    """Equal bits, or both NaN (numpy and the host may set different NaN payloads)."""
    theirs = float(theirs)
    if math.isnan(theirs):
        return math.isnan(ours)
    return ours.hex() == theirs.hex()


def draw_bits(rng: random.Random) -> int:
    """A binary32 bit pattern; a third are subnormal or near the overflow edge."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.getrandbits(32)
    exponent = rng.choice([0, 1, 2]) if kind == 1 else rng.randrange(120, 255)
    return rng.getrandbits(1) << 31 | exponent << 23 | rng.getrandbits(23)


# 1 + 2^-24 and (1 + 2^-23) + 2^-24 are ties to even in binary32, as is
# (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24; the largest finite value overflows
TIES = [
    ("+", 1.0, 2.0**-24),
    ("+", 1 + 2.0**-23, 2.0**-24),
    ("-", 1.0, 2.0**-25),
    ("*", 1 + 2.0**-12, 1 + 2.0**-12),
    ("*", 2.0**-75, 2.0**-75),
    ("/", 1 + 2.0**-23, 2.0),
    ("+", 3.4028234663852886e38, 3.4028234663852886e38),
    ("*", -3.4028234663852886e38, 2.0),
    ("/", 2.0**-149, 2.0),
    ("/", 3 * 2.0**-149, 2.0),
]


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_operation_rounds_as_numpy_does(op):
    rng = random.Random(f"binary32 {op}")
    fn = OPS[op]
    pairs = [(a, b) for o, a, b in TIES if o == op]
    pairs += [(float(from_bits(draw_bits(rng))), float(from_bits(draw_bits(rng))))
              for _ in range(5000)]
    with np.errstate(all="ignore"):
        for a, b in pairs:
            if op == "/" and b == 0:
                continue  # the loop never divides by zero, and Python raises where C does not
            theirs = fn(np.float32(a), np.float32(b))
            assert same(f32(fn(a, b)), theirs), (a, op, b)


def test_table1_and_seeded_scans_match_bit_for_bit():
    rng = random.Random(20191)
    ranges = [("0", "30", "0.05", "1e-6")]
    for _ in range(6):
        lo = rng.randint(-30, 20)
        ranges.append((str(lo), str(lo + rng.randint(1, 10)),
                       rng.choice(["0.05", "0.1", "0.015625", "0.01"]),
                       rng.choice(["1e-4", "1e-6", "1e-8", "9.5367431640625e-07"])))
    for args in ranges:
        ours = scan_table(*(f32(v) for v in args))
        theirs = ref.scan_table(*(np.float32(v) for v in args))
        assert len(ours) == len(theirs), args
        assert all(same(x, tx) and same(v, tv)
                   for (x, v), (tx, tv) in zip(ours, theirs)), args


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (IterationCapExceeded, NonPositiveEps) as exc:
        return type(exc), str(exc)


def test_random_rows_match_values_and_exceptions():
    rng = random.Random(3000)
    # eps that fail the precondition print as numpy prints a float32; the
    # reference prints the binary64 repr of the value instead
    cases = [(np.float32(1), np.float32(eps), 10) for eps in (0.0, -0.0, math.nan, -1e-6)]
    for _ in range(3000):
        if rng.randrange(4) == 0:
            x = from_bits(draw_bits(rng))
        else:
            x = np.float32(rng.uniform(-40, 40))
        eps = np.float32(rng.choice([1e-4, 1e-6, 1e-8, 1e-30, 0.5]))
        if rng.randrange(20) == 0:
            eps = from_bits(rng.getrandbits(32))  # also zero, negative and NaN eps
        cases.append((x, eps, rng.choice([5, 20, 100, 1000])))
    for x, eps, cap in cases:
        with np.errstate(all="ignore"):
            kind_t, theirs = outcome(ref.cos_code_in_c, x, eps, cap)
        kind_o, ours = outcome(cos_code_in_c, float(x), float(eps), cap)
        assert kind_o == kind_t, (x, eps, cap)
        if kind_o == "value":
            assert same(ours, theirs), (x, eps, cap)
        elif kind_o is NonPositiveEps:
            assert ours == f"eps > 0: got {str(np.float32(eps))}", (x, eps, cap)
        else:
            assert ours == theirs, (x, eps, cap)


def test_f32_parses_through_binary64_as_numpy_does():
    rng = random.Random(32)
    texts = []
    for _ in range(3000):
        # the midpoint of two neighbouring binary32 values, exact in binary64
        a = float(from_bits(rng.getrandbits(31)))
        b = float(np.nextafter(np.float32(a), np.float32(np.inf)))
        if not math.isfinite(b):
            continue
        middle = (a + b) / 2
        digits = rng.randint(8, 17)
        text = f"{middle:.{digits}e}"
        mantissa, exponent = text.split("e")
        nudge = rng.choice([-1, 0, 1])
        last = int(mantissa[-1]) + nudge
        if 0 <= last <= 9:
            mantissa = mantissa[:-1] + str(last)
        texts.append(f"{mantissa}e{exponent}")
    texts += ["0.05", "1e-6", "-0", "inf", "-inf", "nan", "1e39", "1e-46", " 1.5 ", "1_000"]
    ints = [rng.getrandbits(rng.randint(1, 130)) * rng.choice([1, -1]) for _ in range(2000)]
    ints += [2**53 + 2**29 + 1, 2**24 + 1, 2**128, 2**128 - 2**103]
    floats = [float64_from_bits(rng.getrandbits(64)) for _ in range(2000)]
    floats += [1e300, -1e300, 3.4028235677973366e38, 2.0**-150, 2.0**-150 * 3]
    with np.errstate(all="ignore"):
        for value in texts + ints + floats:
            assert same(f32(value), np.float32(value)), value


def test_f32_str_prints_as_numpy_does():
    rng = random.Random(9)
    patterns = [rng.getrandbits(32) for _ in range(20000)]
    patterns += [sign << 31 | exponent << 23 | mantissa
                 for sign in (0, 1) for exponent in range(256)
                 for mantissa in (0, 1, 0x7FFFFF)]  # powers of two, their neighbours
    for edge in (1e-4, 1e6):
        middle = int(np.array([edge], dtype=np.float32).view(np.uint32)[0])
        patterns += range(middle - 50, middle + 51)
    for bits in patterns:
        value = from_bits(bits)
        assert _f32_str(float(value)) == str(value), hex(bits)
    for value in (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-8, 1e-4, 1e6, 123456789.0):
        assert _f32_str(f32(value)) == str(np.float32(value))
