"""trigcheck benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a trigcheck checkout; it imports the package from
./src. The workload runs in a fresh interpreter (worker.py) whose only load
is one thread, and the CLI workload starts one child process at a time.
Every output is checked here, between rounds, against values computed
outside the program (checks.py), and run.py tells the worker when the run
is long enough. Set-up is timed in that interpreter and in SETUP_PROBES more
that only set up, half before the run and half after; the median is
reported.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, python_env  # noqa: E402

MIN_OPS = 100  # completed operations, so ten or more latencies lie beyond the 90th percentile
WALL_CAP_S = 120  # start no round after this, whatever the program's speed
SETUP_PROBES = 8
IMPORT_PROBES = 3
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.trigcheck_ms": "ms",
    "import.numpy_ms": "ms",
    "exact.calls": "calls/round",
    "exact.self_s": "s/round",
    "fixpoint.mul.calls": "calls/round",
    "fixpoint.div.calls": "calls/round",
    "fixpoint.addsub.calls": "calls/round",
    "fixpoint.mul.us_per_call": "us",
    "fixpoint.div.us_per_call": "us",
    "fixpoint.addsub.us_per_call": "us",
    "fixpoint.self_s": "s/round",
    "fixtrig.evals": "calls/round",
    "fixtrig.terms": "count/round",
    "fixtrig.trace_records": "count/round",
    "fixtrig.self_s": "s/round",
    "fixtrig.reference_calls_per_eval": "calls/eval",
    "oracle.unbounded.calls": "calls/round",
    "oracle.unbounded.self_s": "s/round",
    "oracle.taylor.self_s": "s/round",
    "oracle.zerone.self_s": "s/round",
    "oracle.pi.self_s": "s/round",
    "oracle.iterations": "count/round",
    "floatrepro.rows": "count/round",
    "floatrepro.us_per_row": "us",
    "floatrepro.self_s": "s/round",
    "verify.suite_calls": "calls/round",
    "verify.self_s": "s/round",
    "cli.self_s": "s/round",
    "trace.untraced_ops_per_s": "ops/s",
    "trace.traced_ops_per_s": "ops/s",
    "trace.overhead_pct": "%",
}


class WorkerError(RuntimeError):
    pass


def _receive(stream):
    header = stream.read(8)
    if len(header) < 8:
        raise WorkerError("the worker ended without a result")
    size = struct.unpack("<Q", header)[0]
    return pickle.loads(stream.read(size))  # bytes written by worker.py


def _worker(root: Path, args, extra: list[str], on_round=None) -> dict:
    """Run worker.py to its end; hand each round to on_round, then reply:
    stop (s) if on_round says the run is long enough, else go on (k)."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), *extra]
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=python_env(root))
    try:
        while True:
            message = _receive(proc.stdout)
            if "round" not in message:
                break
            proc.stdin.write(b"s" if on_round(message) else b"k")
            proc.stdin.flush()
        proc.stdin.close()
        if proc.wait(timeout=60) != 0:
            raise WorkerError(f"the worker exited with {proc.returncode}")
        return message
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


class Tally:
    """Outcomes of the checked operations, split by traced and untraced rounds.

    Called with each round; returns True once the run is long enough: at
    least `seconds` of timed work and MIN_OPS completed operations, in each
    half of a traced run, which ends after an untraced and a traced round
    alike.
    """

    def __init__(self, checker, seconds: float, traced_run: bool) -> None:
        self.checker = checker
        self.seconds = seconds / 2 if traced_run else seconds
        self.halves = (False, True) if traced_run else (False,)
        self.rounds = {False: 0, True: 0}
        self.wall_start = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies = {False: [], True: []}
        self.correct_ops = {False: 0, True: 0}
        self.timed = {False: 0.0, True: 0.0}

    def __call__(self, message: dict) -> bool:
        if self.wall_start is None:
            self.wall_start = time.monotonic()
        traced = message["traced"]
        self.rounds[traced] += 1
        for meta, plain, error, elapsed in message["round"]:
            failed, problem = self.checker.check(meta, plain, error)
            self.attempted += 1
            self.timed[traced] += elapsed
            if failed:
                self.failed += 1
                print(f"failed: {meta.get('command', meta['kind'])}: {problem}", file=sys.stderr)
                continue
            self.latencies[traced].append(elapsed)
            if problem is None:
                self.correct_ops[traced] += 1
            else:
                self.problems.append(f"{meta}: {problem}")
                print(f"WRONG: {meta}: {problem}", file=sys.stderr)
        if time.monotonic() - self.wall_start > WALL_CAP_S:
            return True
        return len(set(self.rounds[k] for k in self.halves)) == 1 and all(
            self.timed[k] >= self.seconds and len(self.latencies[k]) >= MIN_OPS
            for k in self.halves)


def import_times(root: Path, probes: int = IMPORT_PROBES) -> dict:
    """Cumulative -X importtime of trigcheck and numpy, in ms, median of a few runs."""
    found = {"trigcheck": [], "numpy": []}
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trigcheck"],
                              cwd=root, env=python_env(root), capture_output=True, text=True,
                              timeout=60, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) / 1000
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in found.items()}


def _layer_metrics(root: Path, final: dict, tally: Tally) -> dict:
    trace = final["trace"]
    rounds = final["rounds"][True]
    calls, total, own, counts = (trace[k] for k in ("calls", "total_s", "self_s", "counts"))

    def per_round(value: float) -> float:
        return value / rounds

    def layer_self(prefix: str) -> float:
        return per_round(sum(v for k, v in own.items() if k.startswith(prefix + ".")))

    def us_per_call(name: str) -> float:
        n = calls.get(name, 0)
        return 1e6 * total.get(name, 0.0) / n if n else 0.0

    imports = import_times(root)
    evals = calls.get("fixtrig.eval", 0)
    rates = {k: tally.correct_ops[k] / tally.timed[k] for k in (False, True)}
    return {
        "import.trigcheck_ms": imports["trigcheck"],
        "import.numpy_ms": imports["numpy"],
        "exact.calls": per_round(calls.get("exact.call", 0)),
        "exact.self_s": layer_self("exact"),
        "fixpoint.mul.calls": per_round(calls.get("fixpoint.mul", 0)),
        "fixpoint.div.calls": per_round(calls.get("fixpoint.div", 0)),
        "fixpoint.addsub.calls": per_round(calls.get("fixpoint.addsub", 0)),
        "fixpoint.mul.us_per_call": us_per_call("fixpoint.mul"),
        "fixpoint.div.us_per_call": us_per_call("fixpoint.div"),
        "fixpoint.addsub.us_per_call": us_per_call("fixpoint.addsub"),
        "fixpoint.self_s": layer_self("fixpoint"),
        "fixtrig.evals": per_round(evals),
        "fixtrig.terms": per_round(counts.get("fixtrig.terms", 0)),
        "fixtrig.trace_records": per_round(counts.get("fixtrig.trace_records", 0)),
        "fixtrig.self_s": layer_self("fixtrig"),
        "fixtrig.reference_calls_per_eval":
            counts["fixtrig.reference_calls"] / evals if evals else 0.0,
        "oracle.unbounded.calls": per_round(calls.get("oracle.unbounded", 0)),
        "oracle.unbounded.self_s": per_round(own.get("oracle.unbounded", 0.0)),
        "oracle.taylor.self_s": per_round(own.get("oracle.taylor", 0.0)),
        "oracle.zerone.self_s": per_round(own.get("oracle.zerone", 0.0)),
        "oracle.pi.self_s": per_round(own.get("oracle.pi", 0.0)),
        "oracle.iterations": per_round(counts.get("oracle.iterations", 0)),
        "floatrepro.rows": per_round(counts.get("floatrepro.rows", 0)),
        "floatrepro.us_per_row": (1e6 * sum(v for k, v in own.items()
                                            if k.startswith("floatrepro."))
                                  / counts["floatrepro.rows"]
                                  if counts.get("floatrepro.rows") else 0.0),
        "floatrepro.self_s": layer_self("floatrepro"),
        "verify.suite_calls": per_round(calls.get("verify.suite", 0)),
        "verify.self_s": layer_self("verify"),
        "cli.self_s": layer_self("cli"),
        "trace.untraced_ops_per_s": rates[False],
        "trace.traced_ops_per_s": rates[True],
        "trace.overhead_pct": 100 * (rates[False] - rates[True]) / rates[False],
    }


def _end_to_end(setups: list[float], final: dict, tally: Tally) -> dict:
    latencies = tally.latencies[False]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.correct_ops[False] / tally.timed[False],
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": final["peak_rss_kb"] / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "trigcheck" / "__init__.py").is_file():
        print("run.py: no src/trigcheck here; run it from the root of a trigcheck checkout",
              file=sys.stderr)
        return 2
    # the checker parses long decimals; the program's processes keep the default limit
    sys.set_int_max_str_digits(0)
    from checks import Checker

    tally = Tally(Checker(), args.seconds, traced_run=bool(args.trace))
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [_worker(root, args, ["--setup-only"])["setup_s"] for _ in range(probes)]
        final = _worker(root, args, [], tally)
        setups += [_worker(root, args, ["--setup-only"])["setup_s"] for _ in range(probes)]
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = _layer_metrics(root, final, tally), PER_LAYER
    else:
        metrics, units = _end_to_end(setups + [final["setup_s"]], final, tally), END_TO_END

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} attempted = {tally.attempted} failed = {tally.failed} "
          f"rounds = {sum(final['rounds'].values())} wrong = {len(tally.problems)}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
