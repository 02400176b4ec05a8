"""Steadiness check: two sets of ten runs of the same code.

    python3 perfbench/steady.py [--workload NAME ...]

Run it from the root of a trigcheck checkout. Each set runs run.py RUNS
times per workload, every run with its own seed, at BENCHMARK.json's
run_seconds. For each end-to-end metric it prints, per workload and set,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound, then how far set 2's median
moved from set 1's in the worse direction. It also compares the share of
failed operations between the sets, which must match exactly.

It exits 1 if a spread, a median shift or a failed share is out of line.
The spread of setup_s is printed and flagged but does not fail the check:
set-up is a few hundred milliseconds of process start and import, and a
change of the machine's speed moves it more than a long timed run. Its
median shift is held to its bound like every other metric's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    workloads = args.workload or names

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                out = run_once(spec, w, seed=1000 * (s + 1) + i)
                results[w][s].append(out)
                print(f"set {s + 1} run {i + 1} {w}: attempted={out['attempted']} "
                      f"failed={out['failed']} correct={out['correct']}", flush=True)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    for w in workloads:
        print(f"\n{w}")
        shares = {Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in results[w]}
        wrong = sum(not r["correct"] for runs in results[w] for r in runs)
        print(f"  failed share per set: {sorted(str(x) for x in shares)}; "
              f"runs with wrong outputs: {wrong}")
        ok &= len(shares) == 1 and wrong == 0
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "" if spread <= bound / 3 else "  over a third of the bound"
                if spread > bound:
                    gated = name != "setup_s"
                    flag = "  OVER THE BOUND" if gated else "  over the bound (not gated)"
                    ok &= not gated
                print(f"  {name:12s} set {s + 1}: median {med:.6g} [{q1:.6g}, {q3:.6g}] "
                      f"spread {spread:.4f} / bound {bound}{flag}")
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            ok &= shift <= bound
            print(f"  {name:12s} worse by {shift:+.4f} from set 1 to set 2"
                  f"{'  OVER THE BOUND' if shift > bound else ''}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
