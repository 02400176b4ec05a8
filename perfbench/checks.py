"""Every output checked against values computed outside the program.

mpmath supplies cos, sin and pi at enough digits for the tightest eps;
`laws` supplies the minimal term counts, the paper's caps, the Leibniz
iteration law, the exact series terms and the binary32 recomputation. The
checks run in run.py, between rounds, never while an operation is timed.
"""

from __future__ import annotations

import csv
import io
import json
import re
import struct
from fractions import Fraction

import mpmath

from laws import (
    error_cap,
    gap_cap,
    min_terms,
    nearest_f32,
    pi_iterations,
    scan_f32,
    series_term,
    taylor_iterations,
)

GUARD_DIGITS = 30
TABLE1 = (0.0, 30.0, nearest_f32(Fraction(1, 20)), nearest_f32(Fraction(1, 10**6)))
SUITE_CHECKS = {"identities": 8, "bounds": 36, "appendix": 36}  # checks per sample
_VERIFY_LINE = re.compile(
    r"PASS suite=(\w+) seed=(\d+) samples=(\d+) checks=(\d+) failures=0$")


def _digits(value: Fraction) -> int:
    """Decimal digits needed to resolve a quantity of this size."""
    return max(0, len(str(value.denominator)) - len(str(value.numerator))) + GUARD_DIGITS


def _mpf(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


def within(value: Fraction, exact_fn, x: Fraction | None, cap: Fraction) -> bool:
    """|value - exact_fn(x)| <= cap, evaluated with digits to spare."""
    with mpmath.workdps(_digits(cap)):
        ref = exact_fn() if x is None else exact_fn(_mpf(x))
        slack = mpmath.mpf(10) ** (-mpmath.mp.dps + 5)
        return abs(_mpf(value) - ref) <= _mpf(cap) + slack


def _trig(odd: bool):
    return mpmath.sin if odd else mpmath.cos


def _rendered(text: str, digits: int) -> Fraction | None:
    """Parse a to_decimal string; None unless it has exactly `digits` decimals."""
    match = re.fullmatch(r"(-?)(\d+)(?:\.(\d+))?", text.strip())
    if match is None or len(match.group(3) or "") != digits:
        return None
    units = int(match.group(2) + (match.group(3) or ""))
    return Fraction(-units if match.group(1) else units, 10**digits)


def render_problem(text: str, digits: int, value: Fraction) -> str | None:
    shown = _rendered(text, digits)
    if shown is None:
        return f"not {digits} decimals: {text[:40]!r}"
    if abs(shown - value) > Fraction(1, 2 * 10**digits):
        return f"rendering off by more than half a unit in the last digit: {text[:40]!r}"
    return None


def record_problems(records, x: Fraction, delta: Fraction, odd: bool, n: int) -> str | None:
    """Paired-trace records (k, tc, cs, tcfp, gap): n - 1 of them, each exact
    term and partial sum right, each gap the difference and within the cap."""
    if len(records) != n - 1:
        return f"{len(records)} trace records, want n - 1 = {n - 1}"
    cap = gap_cap(delta)
    partial = Fraction(0)
    for index, (k, tc, cs, tcfp, gap) in enumerate(records):
        partial += series_term(x, index, odd)
        if k != index + 1:
            return f"record {index} has k={k}"
        if tc != series_term(x, k, odd):
            return f"record k={k}: exact term {tc} is not (-1)^k x^(2k+{int(odd)})/(2k+{int(odd)})!"
        if cs != partial:
            return f"record k={k}: exact partial sum is wrong"
        if gap != tcfp - tc or abs(gap) > cap:
            return f"record k={k}: gap {gap} not within (3/2)d/(1-d) = {cap}"
    return None


def fix_problems(x, eps, delta, odd, value, n, bound) -> str | None:
    if n != min_terms(eps, odd):
        return f"n={n}, want the minimal count {min_terms(eps, odd)}"
    if bound != error_cap(n, delta, eps):
        return f"cap {bound} is not eps + 3n d/(2(1-d))"
    if (value / delta).denominator != 1:
        return f"value {value} is off the grid"
    if not within(value, _trig(odd), x, bound):
        return f"|value - {'sin' if odd else 'cos'} x| exceeds the cap {bound}"
    return None


class Checker:
    def __init__(self) -> None:
        self._scans: dict[tuple, list] = {}

    def check(self, meta: dict, plain, error: str | None) -> tuple[bool, str | None]:
        """(failed, problem): failed for an operation that did not complete;
        problem describes a completed operation whose output is wrong."""
        if error is not None:
            return True, error
        if meta["kind"] == "cli":
            return self._cli(meta, plain)
        return False, getattr(self, "_" + meta["kind"])(meta, plain)

    def _fix(self, meta, out) -> str | None:
        problem = fix_problems(meta["x"], meta["eps"], meta["delta"], meta["odd"],
                               out["value"], out["n"], out["bound"])
        if problem is None and meta["trace"]:
            problem = record_problems(out["records"], meta["x"], meta["delta"],
                                      meta["odd"], out["n"])
        return problem

    def _series(self, meta, out) -> str | None:
        x, eps, odd = meta["x"], meta["eps"], meta["odd"]
        if "zerone" in meta["name"]:
            want = min_terms(eps, odd)
        else:
            want = taylor_iterations(x, eps, odd)
        if out["iterations"] != want:
            return f"{out['iterations']} iterations, want {want}"
        if out["bound"] != eps:
            return f"bound {out['bound']} is not eps"
        if not within(out["value"], _trig(odd), x, eps):
            return "value not within eps of the true value"
        return None

    def _unbounded(self, meta, out) -> str | None:
        if not within(out["value"], _trig(meta["odd"]), meta["x"], meta["eps"]):
            return "value not within eps of the true value"
        return None

    def _render(self, meta, out) -> str | None:
        return render_problem(out["text"], meta["digits"], out["value"])

    def _pi(self, meta, out) -> str | None:
        eps = meta["eps"]
        if out["iterations"] != pi_iterations(eps):
            return f"{out['iterations']} iterations, want ceil(2/eps - 3/2)"
        if out["bound"] != eps:
            return f"bound {out['bound']} is not eps"
        if not within(out["value"], lambda: mpmath.pi, None, eps):
            return "value not within eps of pi"
        return None

    def scan(self, args: tuple) -> list:
        if args not in self._scans:
            self._scans[args] = scan_f32(*args)
        return self._scans[args]

    def _scan(self, meta, out) -> str | None:
        want = self.scan(meta["args"])
        got = out["rows"]
        if len(got) != len(want):
            return f"{len(got)} rows, want {len(want)}"
        flat_got = [v for row in got for v in row]
        flat_want = [v for row in want for v in row]
        packer = struct.Struct(f"<{len(flat_got)}d")
        if packer.pack(*flat_got) != packer.pack(*flat_want):
            return "binary32 rows differ from the struct recomputation"
        return None

    def _cli(self, meta, out) -> tuple[bool, str | None]:
        if out["code"] != 0:
            return True, f"exit {out['code']}: {out['stderr'].strip()[-200:]}"
        command = meta["command"]
        text = out["stdout"]
        if command == "repro-table1":
            want = [f"{x:e}  {v:e}" for x, v in self.scan(TABLE1)]
            return False, None if text.splitlines() == want else "table differs"
        if command == "golden":
            eps, digits = meta["eps"], meta["digits"]
            shown = _rendered(text, digits)
            if shown is None:
                return False, f"not {digits} decimals"
            ok = within(shown, mpmath.cos, meta["x"], eps + Fraction(1, 2 * 10**digits))
            return False, None if ok else "golden value not within eps of cos x"
        if command == "verify":
            match = _VERIFY_LINE.match(text.splitlines()[0] if text else "")
            if match is None or match.group(1) != meta["suite"]:
                return False, f"unexpected verify report {text[:80]!r}"
            samples = int(match.group(3))
            if (int(match.group(2)), samples) != (meta["seed"], meta["samples"]) \
                    or int(match.group(4)) != SUITE_CHECKS[meta["suite"]] * samples:
                return False, f"verify ran other checks than asked: {text[:80]!r}"
            return False, None
        if "--json" in meta["flags"]:
            fields = json.loads(text)
        else:
            fields = dict(line.split(" = ", 1) for line in text.splitlines())
        return False, self._cli_fields(meta, fields, out["trace_text"])

    def _cli_fields(self, meta, fields, trace_text) -> str | None:
        command, eps = meta["command"], meta["eps"]
        if command == "pi":
            value = Fraction(fields["value"])
            return (self._pi(meta, {"value": value, "iterations": int(fields["iterations"]),
                                    "bound": Fraction(fields["bound"])})
                    or render_problem(fields["decimal"], 12, value))
        odd = command in ("sin", "fixsin")
        if command in ("cos", "sin"):
            value = Fraction(fields["value"])
            if "--unbounded" in meta["flags"]:
                problem = self._unbounded(dict(meta, odd=odd), {"value": value})
            else:
                name = "zerone" if "--zerone" in meta["flags"] else "taylor"
                problem = self._series(dict(meta, odd=odd, name=name), {
                    "value": value, "iterations": int(fields["iterations"]),
                    "bound": Fraction(fields["bound"])})
            return problem or render_problem(fields["decimal"], 12, value)
        value = Fraction(fields["value_exact"])
        n = int(fields["n"])
        delta = Fraction(1, int(meta["format"].split(":")[0][2:]))
        problem = (fix_problems(meta["x"], eps, delta, odd, value, n, Fraction(fields["bound"]))
                   or render_problem(fields["decimal"], 12, value))
        if problem or fields["format"] != meta["format"] or Fraction(fields["value"]) != value:
            return problem or "format or grid value misreported"
        if meta["trace_file"] is None:
            return None
        if fields.get("trace") != f"{n - 1} records -> {meta['trace_file']}":
            return f"trace summary line {fields.get('trace')!r}"
        if trace_text is None:
            return "trace file missing"
        if meta["trace_file"].endswith(".json"):
            rows = json.loads(trace_text)
        else:
            rows = list(csv.DictReader(io.StringIO(trace_text)))
        records = [(int(r["k"]), Fraction(r["tc"]), Fraction(r["cs"]), Fraction(r["tcfp"]),
                    Fraction(r["delta"])) for r in rows]
        return record_problems(records, meta["x"], delta, odd, n)
