"""Reference figures for perfbench/README.md, beside the ROADMAP baseline.

    python3 perfbench/reference.py

Run it from the root of a trigcheck checkout, on an otherwise idle machine.
Each figure is the median of several timings; it prints a Markdown table.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from run import import_times
from workloads import python_env

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
ENV = python_env(ROOT)


def median_time(fn, repeat: int, number: int = 1) -> float:
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def process_time(argv: list[str], repeat: int = 10) -> float:
    return median_time(lambda: subprocess.run([sys.executable, *argv], env=ENV, check=True,
                                              capture_output=True), repeat)


def main() -> None:
    import trigcheck
    from trigcheck import verify
    from trigcheck.fixpoint import FixFormat, FixNum

    rows = []
    rows.append(("bare interpreter start-up", process_time(["-c", "pass"]) * 1e3, "ms",
                 "0.14 s"))
    imports = import_times(ROOT, probes=7)
    trig_ms, numpy_ms = imports["trigcheck"], imports["numpy"]
    rows.append(("`import trigcheck` (-X importtime, cumulative)", trig_ms, "ms", "145 ms"))
    rows.append(("of which numpy", numpy_ms, "ms", "97 ms"))
    rows.append(("one `trigcheck fixcos` process",
                 process_time(["-m", "trigcheck.cli", "fixcos", "--format=1/65536:[-8,64]",
                               "--x=45875/65536", "--eps=1/1024"]) * 1e3, "ms", "≈0.36 s"))

    fmt = FixFormat.parse("1/65536:[-8,64]")
    rng = random.Random(7)
    pairs = [(FixNum(rng.randint(-fmt.k, fmt.k), fmt), FixNum(rng.randint(-fmt.k, fmt.k), fmt))
             for _ in range(2000)]
    rows.append(("FixNum `*` (format 1/65536)",
                 median_time(lambda: [a * b for a, b in pairs], 7) / len(pairs) * 1e6,
                 "µs/op", "43 µs"))
    rows.append(("FixNum `+` (format 1/65536)",
                 median_time(lambda: [a + b for a, b in pairs], 7) / len(pairs) * 1e6,
                 "µs/op", "16 µs"))

    x = fmt.from_rat(Fraction(7, 10))
    eps = fmt.from_rat(Fraction(1, 1000))
    rows.append(("one `cos_fixpoint` (1/65536, x≈0.7, eps≈1e-3)",
                 median_time(lambda: trigcheck.cos_fixpoint(x, eps), 9, 20) * 1e3, "ms",
                 "0.84 ms"))
    rows.append(("one `paired_trace_cos`, same inputs",
                 median_time(lambda: trigcheck.paired_trace_cos(x, eps), 9, 20) * 1e3, "ms",
                 "0.96 ms"))
    f32 = trigcheck.f32
    rows.append(("one Table 1 `scan_table` (0..30 step 0.05, eps 1e-6)",
                 median_time(lambda: trigcheck.scan_table(f32("0"), f32("30"), f32("0.05"),
                                                          f32("1e-6")), 9) * 1e3, "ms",
                 "11.5 ms"))
    for name, baseline in (("identities", "0.57 s"), ("bounds", "0.84 s"),
                           ("appendix", "0.80 s")):
        suite = verify.SUITES[name]
        rows.append((f"`verify {name}` at CLI defaults, in-process",
                     median_time(suite, 3), "s", baseline))

    print("| figure | this machine | ROADMAP baseline |")
    print("|---|---|---|")
    for label, value, unit, baseline in rows:
        print(f"| {label} | {value:.3g} {unit} | {baseline} |")


if __name__ == "__main__":
    main()
