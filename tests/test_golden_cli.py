"""Replay a recorded CLI corpus and require byte-identical results.

`tests/golden/corpus.json` holds, for each case below, the stdout, stderr
and exit code of `cli.main`, plus the bytes of the trace file when the case
writes one. Any change to what the CLI prints, which exit code it returns or
what a trace file holds shows up here as a failed case.

To record the corpus again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

UNIT = "1/256:[-8,64]"
FINE = "1/65536:[-8,1024]"

# name -> (argv, trace file the case writes or None, fault or None)
CASES = {
    "pi": (["pi", "--eps", "1/2"], None, None),
    "pi-json": (["pi", "--eps", "1/50", "--json"], None, None),
    "cos-taylor": (["cos", "--x", "1", "--eps", "1/20"], None, None),
    "cos-taylor-tie": (["cos", "--x", "1", "--eps", "1/2"], None, None),
    "cos-taylor-negative-json": (["cos", "--x=-7/10", "--eps", "1/10000", "--json"],
                                 None, None),
    "sin-taylor-negative": (["sin", "--x", "-3", "--eps", "1/1000"], None, None),
    "cos-zerone": (["cos", "--x", "1", "--eps", "1/4", "--zerone"], None, None),
    "sin-zerone-negative-json": (["sin", "--x", "-1", "--eps", "1e-6", "--zerone", "--json"],
                                 None, None),
    "cos-unbounded-negative": (["cos", "--x", "-50", "--eps", "1e-8", "--unbounded"],
                               None, None),
    "sin-unbounded-json": (["sin", "--x", "1", "--eps", "1/1000", "--unbounded", "--json"],
                           None, None),
    # eps >= 1: the sum runs on until x^2 < (m+1)(m+2), so it stays within eps of cos x
    "cos-unbounded-eps-above-one": (["cos", "--unbounded", "--x", "314159/100000",
                                     "--eps", "3/2"], None, None),
    # past head 64 (about 85 heads), where the checked loops' integers grow to
    # hundreds of digits
    "cos-zerone-deep": (["cos", "--x", "1", "--eps", "1e-300", "--zerone"], None, None),
    "sin-taylor-deep-negative-json": (["sin", "--x=-7/8", "--eps", "1e-300", "--json"],
                                      None, None),
    "pi-deep": (["pi", "--eps", "1/700"], None, None),
    "fixcos-json": (["fixcos", "--format", FINE, "--eps", "1/4096", "--x=-1/2", "--json"],
                    None, None),
    "fixsin": (["fixsin", "--format", UNIT, "--eps", "1/4", "--x", "1"], None, None),
    "fixcos-trace-csv": (["fixcos", "--format", FINE, "--eps", "1/4096", "--x", "3/4",
                          "--trace", "trace.csv"], "trace.csv", None),
    "fixsin-trace-json": (["fixsin", "--format", FINE, "--eps", "1/65536", "--x", "-1",
                           "--trace", "trace.json"], "trace.json", None),
    "fixcos-trace-json-json": (["fixcos", "--format", UNIT, "--eps", "1/256", "--x=-1/2",
                                "--trace", "trace.json", "--json"], "trace.json", None),
    # the 2^40 grid, where the exact twin's unreduced integers grow largest
    "fixsin-trace-json-2p40": (["fixsin", "--format", "1/1099511627776:[-8,1024]", "--x", "3/4",
                                "--eps", "1/1073741824", "--trace", "t40.json"], "t40.json", None),
    "golden": (["golden", "--x", "50", "--eps", "1/100000000", "--digits", "10"],
               None, None),
    "golden-5000": (["golden", "--x", "50", "--eps", "1/100000000", "--digits", "5000"],
                    None, None),
    "repro-table1": (["repro-table1"], None, None),
    "repro-table1-csv": (["repro-table1", "--min=-1.5", "--max", "2", "--step", "0.1",
                          "--eps", "1e-4", "--csv", "rows.csv"], "rows.csv", None),
    # 12 iterations is the most any row of 0..5 needs, so the cap is just met
    "repro-table1-cap": (["repro-table1", "--max", "5", "--cap", "12"], None, None),
    "verify-identities": (["verify", "--suite", "identities", "--samples", "3",
                           "--seed", "7"], None, None),
    "verify-bounds": (["verify", "--suite", "bounds", "--samples", "2", "--seed", "5"],
                      None, None),
    "verify-appendix": (["verify", "--suite", "appendix", "--samples", "2", "--seed", "3"],
                        None, None),
    "exit1-missing-eps": (["cos", "--x", "1"], None, None),
    "exit2-zerone-range": (["sin", "--x", "2", "--eps", "1/4", "--zerone"], None, None),
    "exit2-eps-range": (["cos", "--x", "1/2", "--eps", "1"], None, None),
    "exit2-repro-table1-cap": (["repro-table1", "--max", "5", "--cap", "11"], None, None),
    "exit2-repro-table1-stall": (["repro-table1", "--min", "1", "--max", "2",
                                  "--step", "1e-8"], None, None),
    "exit2-repro-table1-eps-negative": (["repro-table1", "--eps=-1e-6"], None, None),
    # 1e39 is inf in binary32, so the first term overflows at iteration 1
    "exit2-repro-table1-overflow": (["repro-table1", "--min", "1e39", "--max", "1e39"],
                                    None, None),
    # x*x/2 = 4/8 at head 1, and its negation leaves [-1/8, 100]; no other
    # case reaches a RangeOverflow from the fix-point loop
    "exit2-fixcos-range-overflow": (["fixcos", "--format", "1/8:[-1/8,100]", "--eps", "1/4",
                                     "--x", "1"], None, None),
    "exit3-headline": (["fixcos", "--format", UNIT, "--eps", "1/4", "--x", "1/2"],
                       None, "reference-plus-one"),
    # an untraced run walks the exact twin too, so a wrong exact term exits 3 here
    "exit3-first-gap": (["fixcos", "--format", FINE, "--x", "3/4", "--eps", "1/4096"],
                        None, "head-1-past-first-gap"),
    # an output file in a directory that does not exist: one line, exit 1
    "exit1-fixcos-trace-missing-dir": (["fixcos", "--format", UNIT, "--eps", "1/4",
                                        "--x", "1/2", "--trace", "missing/t.csv"],
                                       None, None),
    "exit1-repro-table1-csv-missing-dir": (["repro-table1", "--max", "1",
                                            "--csv", "missing/r.csv"], None, None),
    "exit1-verify-samples-zero": (["verify", "--suite", "bounds", "--samples", "0"],
                                  None, None),
    "exit1-verify-samples-not-int": (["verify", "--suite", "bounds", "--samples", "2.5"],
                                     None, None),
    "exit1-repro-table1-cap-zero": (["repro-table1", "--cap", "0"], None, None),
}


def _apply_fault(fault: str | None, patch) -> None:
    """Inject the fault a case names; `patch(obj, name, value)` installs it."""
    if fault is None:
        return
    from trigcheck import fixtrig, oracle

    if fault == "reference-plus-one":
        # every real input passes the headline check, so exit 3 needs a
        # wrong reference value
        patch(fixtrig, "cos_unbounded", lambda x, eps: oracle.cos_unbounded(x, eps) + 1)
        return
    if fault == "head-1-past-first-gap":
        # head 1's exact term t/d moved by A/B, the 1/65536 grid's gap cap 3/(2*65535)
        # plus a step, which puts it past the first-gap cap 3/(4*65536)
        a, b = (Fraction(3, 2 * 65535) + Fraction(1, 65536)).as_integer_ratio()

        def heads(x, odd):
            for n, sign, t, acc, d, fact in oracle._scaled_heads(x, odd):
                yield ((n, sign, t * b + a * d, acc * b, d * b, fact) if n == 1
                       else (n, sign, t, acc, d, fact))
        patch(fixtrig, "_scaled_heads", heads)
        return
    raise ValueError(f"unknown fault {fault!r}")


def run_case(name: str, workdir: Path, patch) -> dict:
    """Run one case through cli.main inside workdir and capture everything."""
    from trigcheck import cli

    argv, trace, fault = CASES[name]
    _apply_fault(fault, patch)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        trace_text = (workdir / trace).read_bytes().decode("utf-8") if trace else None
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit": code, "trace": trace_text}


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)
    assert {corpus[name]["exit"] for name in corpus} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name, corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    assert run_case(name, tmp_path, monkeypatch.setattr) == corpus[name]


def record() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    recorded = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir, pytest.MonkeyPatch.context() as mp:
            recorded[name] = run_case(name, Path(workdir), mp.setattr)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases -> {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    record()
