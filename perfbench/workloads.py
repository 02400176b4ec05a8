"""The benchmark's four workloads.

Each workload builds its fixed inputs once (part of the measured set-up),
then hands out rounds: lists of operations drawn from the seeded generator.
An operation is one call into trigcheck's public API, or one CLI process.
The program sees only these generated inputs; the seed stays here.

`export` turns an output into plain data (ints, Fractions, floats, strings)
for the checks, which run in another process and never import trigcheck.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from laws import fix_counter_fits, nearest_f32


def python_env(root: Path) -> dict:
    """The environment, with the checkout's ./src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))


@dataclass
class Op:
    owner: object  # module or object holding the callable
    attr: str  # looked up at call time, so a traced round calls the wrappers
    args: tuple
    meta: dict = field(default_factory=dict)
    chain: bool = False  # prepend the previous operation's output to args


class Workload:
    def __init__(self, tc, root: Path, in_process: bool) -> None:
        self.tc = tc

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class FixpointSweep(Workload):
    """cos/sin_fixpoint and the paired traces over a ladder of grid formats.

    One x per format and round is shared by every eps and by cos and sin, as
    in `verify.bounds`, so a reference shared across calls has work to share.
    """

    FORMATS = (
        "1/256:[-8,64]",
        "1/65536:[-8,64]",
        "1/1000000:[-8,64]",
        "1/65536:[-8,1024]",
        "1/1099511627776:[-8,1024]",
    )
    EPS = tuple(Fraction(1, d) for d in (4, 16, 1000, 10**5, 10**8, 10**12))
    ROUTINES = {False: ("cos_fixpoint", "paired_trace_cos"),
                True: ("sin_fixpoint", "paired_trace_sin")}

    def __init__(self, tc, root: Path, in_process: bool) -> None:
        super().__init__(tc, root, in_process)
        self.plan = []
        for text in self.FORMATS:
            fmt = tc.FixFormat.parse(text)
            grid = sorted({Fraction(max(1, round(e * fmt.k)), fmt.k) for e in self.EPS},
                          reverse=True)
            calls = [(fmt.exact(e), e, odd) for e in grid for odd in (False, True)
                     if fix_counter_fits(fmt.sup, e, odd)]
            self.plan.append((fmt, calls))

    def round(self, rng) -> list[Op]:
        ops = []
        for fmt, calls in self.plan:
            m = rng.randint(-fmt.k, fmt.k)
            x = self.tc.FixNum(m, fmt)
            for eps, eps_r, odd in calls:
                for name in self.ROUTINES[odd]:
                    meta = {"kind": "fix", "odd": odd, "trace": name.startswith("paired"),
                            "delta": Fraction(1, fmt.k), "x": Fraction(m, fmt.k),
                            "eps": eps_r}
                    ops.append(Op(self.tc.fixtrig, name, (x, eps), meta))
        return ops

    def export(self, meta, args, out):
        result = out.result if meta["trace"] else out
        records = [(r.k, r.tc_exact, r.cs_exact, r.tcfp, r.delta)
                   for r in out.records] if meta["trace"] else None
        return {"value": Fraction(result.value.m, result.value.fmt.k), "n": result.n,
                "bound": result.a_priori_bound, "records": records}


class ExactSeries(Workload):
    """The exact oracles alone: no FixNum work, so a kernel change cannot move it.

    Of a round's 29 calls, 12 take about a millisecond or less and the 1e-40
    and 1e-60 calls form the middle, where the median falls. The 90th
    percentile falls among the 1e-300 calls. pi stays below them, and the
    bounded calls draw 1/2 <= |x| <= 1, which keeps each kind's cost narrow.
    """

    LADDER = tuple(Fraction(1, 10**j) for j in (6, 40, 60, 100, 300))
    BOUNDED = (("cos_taylor", False), ("sin_taylor", True),
               ("cos_zerone", False), ("sin_zerone", True))
    UNBOUNDED_EPS = (Fraction(1, 10**10), Fraction(1, 10**40))
    MAX_DIGITS = 4000  # below CPython's 4300-digit int-to-str limit

    def round(self, rng) -> list[Op]:
        oracle, exact = self.tc.oracle, self.tc.exact
        ops = []
        for name, odd in self.BOUNDED:
            for eps in self.LADDER:
                x = Fraction(rng.choice((-1, 1)) * rng.randint(500, 1000), 1000)
                ops.append(Op(oracle, name, (x, eps),
                              {"kind": "series", "name": name, "odd": odd, "x": x, "eps": eps}))
        for eps in self.UNBOUNDED_EPS:
            for name, odd in (("cos_unbounded", False), ("sin_unbounded", True)):
                x = Fraction(rng.randint(-50000, 50000), 1000)
                ops.append(Op(oracle, name, (x, eps),
                              {"kind": "unbounded", "odd": odd, "x": x, "eps": eps}))
                digits = rng.randint(1, self.MAX_DIGITS)
                ops.append(Op(exact, "to_decimal", (digits,),
                              {"kind": "render", "digits": digits}, chain=True))
        eps = Fraction(1, rng.randint(100, 700))
        ops.append(Op(oracle, "pi_leibniz", (eps,), {"kind": "pi", "eps": eps}))
        return ops

    def export(self, meta, args, out):
        if meta["kind"] == "unbounded":
            return {"value": out}
        if meta["kind"] == "render":
            return {"value": args[0], "text": out}
        return {"value": out.value, "iterations": out.iterations,
                "bound": out.a_priori_bound}


class Binary32Scan(Workload):
    """scan_table: the paper's Table 1 range, negative ranges, finer steps,
    several eps. Every input is a binary32 value, passed as one.

    Two scans cost less than Table 1, two cost about as much and two more, so
    the median falls in the middle of the Table 1 scans.
    """

    FINE_STEPS = (Fraction(1, 64), Fraction(1, 100), Fraction(1, 128))
    EPS = (Fraction(1, 10**4), Fraction(1, 2**20), Fraction(1, 10**8))
    TABLE1_EPS = Fraction(1, 10**6)
    TABLE1_STEP = Fraction(1, 20)

    def __init__(self, tc, root: Path, in_process: bool) -> None:
        super().__init__(tc, root, in_process)
        self.table1 = self._args(Fraction(0), Fraction(30), self.TABLE1_STEP, self.TABLE1_EPS)

    def _args(self, *values: Fraction) -> tuple:
        floats = tuple(nearest_f32(v) for v in values)
        return tuple(self.tc.f32(v) for v in floats), floats

    def round(self, rng) -> list[Op]:
        offset = Fraction(rng.randrange(51), 1024)  # under one step of 0.05
        a = rng.randint(5, 15)
        lo = rng.randint(10, 20)
        lo_neg = rng.randint(10, 20)
        lo2 = rng.randint(-30, 15)
        scans = [
            self.table1,
            self._args(offset - 30, offset, self.TABLE1_STEP, self.TABLE1_EPS),
            self._args(Fraction(-a), Fraction(0), self.TABLE1_STEP, self.TABLE1_EPS),
            self._args(Fraction(lo), Fraction(lo + 10), rng.choice(self.FINE_STEPS),
                       self.TABLE1_EPS),
            self._args(Fraction(-lo_neg - 10), Fraction(-lo_neg), rng.choice(self.FINE_STEPS),
                       self.TABLE1_EPS),
            self._args(Fraction(lo2), Fraction(lo2 + 15), Fraction(1, 10),
                       rng.choice(self.EPS)),
        ]
        return [Op(self.tc.floatrepro, "scan_table", args, {"kind": "scan", "args": floats})
                for args, floats in scans]

    def export(self, meta, args, out):
        return {"rows": [(float(x), float(v)) for x, v in out]}


class CliCorpus(Workload):
    """One `python -m trigcheck.cli` process per command, one at a time.

    The traced run replays the same commands in-process through `cli.main`,
    resetting the int-to-str digit limit first, as a fresh process has it.
    """

    def __init__(self, tc, root: Path, in_process: bool) -> None:
        super().__init__(tc, root, in_process)
        self.root = root
        self.in_process = in_process
        self.out_dir = root / "perfbench" / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.env = python_env(root)

    def round(self, rng) -> list[Op]:
        def rat(lo: int, hi: int, den: int) -> Fraction:
            return Fraction(rng.randint(lo * den, hi * den), den)

        csv_out = self.out_dir / "trace.csv"
        json_out = self.out_dir / "trace.json"
        fine = "1/1099511627776:[-8,1024]"
        commands = [
            ("pi", {"eps": Fraction(1, rng.randint(100, 1000))}, []),
            ("cos", {"x": rat(-3, 3, 1000), "eps": Fraction(1, 10**rng.randint(6, 30))}, []),
            ("cos", {"x": rat(-1, 1, 1000), "eps": Fraction(1, 10**rng.randint(6, 30))},
             ["--zerone"]),
            ("cos", {"x": rat(-50, 50, 1000), "eps": Fraction(1, 10**20)}, ["--unbounded"]),
            ("sin", {"x": rat(-3, 3, 1000), "eps": Fraction(1, 10**rng.randint(6, 30))}, []),
            ("sin", {"x": rat(-1, 1, 1000), "eps": Fraction(1, 10**rng.randint(6, 30))},
             ["--zerone"]),
            ("sin", {"x": rat(-50, 50, 1000), "eps": Fraction(1, 10**20)}, ["--unbounded"]),
            ("fixcos", {"format": "1/65536:[-8,1024]", "x": rat(-1, 1, 65536),
                        "eps": Fraction(1, 1024)}, []),
            ("fixcos", {"format": "1/256:[-8,64]", "x": rat(-1, 1, 256),
                        "eps": Fraction(1, 16)}, ["--json"]),
            ("fixsin", {"format": "1/65536:[-8,1024]", "x": rat(-1, 1, 65536),
                        "eps": Fraction(1, 4096)}, ["--trace", str(csv_out)]),
            ("fixsin", {"format": fine, "x": rat(-1, 1, 2**40),
                        "eps": Fraction(1, 2**30)}, ["--trace", str(json_out)]),
            ("repro-table1", {}, []),
            ("golden", {"x": Fraction(50), "eps": Fraction(1, 10**8), "digits": 10}, []),
            # fails in every fresh process today: to_decimal hits the 4300-digit limit
            ("golden", {"x": Fraction(50), "eps": Fraction(1, 10**8), "digits": 5000}, []),
            ("verify", {"suite": "identities", "samples": 50}, []),
            ("verify", {"suite": "bounds", "samples": 25}, []),
            ("verify", {"suite": "appendix", "samples": 25}, []),
        ]
        ops = []
        for command, params, flags in commands:
            argv = [command]
            for key, value in params.items():
                argv.append(f"--{key}={value}")
            if command == "verify":
                params["seed"] = rng.randint(0, 10**6)
                argv.append(f"--seed={params['seed']}")
            argv += flags
            trace_file = flags[1] if flags[:1] == ["--trace"] else None
            if trace_file:
                Path(trace_file).unlink(missing_ok=True)
            meta = dict(params, kind="cli", command=command, flags=flags, trace_file=trace_file)
            ops.append(self._op(argv, meta))
        return ops

    def _op(self, argv: list[str], meta: dict) -> Op:
        return Op(self, "replay" if self.in_process else "spawn", (argv,), meta)

    def spawn(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-m", "trigcheck.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def replay(self, argv: list[str]) -> tuple[int, str, str]:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.tc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def export(self, meta, args, out):
        code, stdout, stderr = out
        trace_file = meta["trace_file"]
        text = None
        if trace_file and Path(trace_file).exists():
            text = Path(trace_file).read_text(encoding="utf-8")
        return {"code": code, "stdout": stdout, "stderr": stderr, "trace_text": text}

    def peak_rss_kb(self) -> int:
        if self.in_process:
            return super().peak_rss_kb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child


WORKLOADS = {
    "fixpoint_sweep": FixpointSweep,
    "exact_series": ExactSeries,
    "binary32_scan": Binary32Scan,
    "cli_corpus": CliCorpus,
}
