"""CLI commands in fresh interpreters: no numpy, and a clean stderr.

The package has no runtime dependencies; numpy is a test-only oracle. Each
command runs in a new interpreter, because this test process has imported
numpy already and Python shows a given warning only once per process.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import trigcheck
from trigcheck import cli

SRC = str(Path(trigcheck.__file__).resolve().parents[1])

UNIT = "1/256:[-8,64]"
COMMANDS = [
    ["pi", "--eps", "1/2"],
    ["cos", "--x", "1", "--eps", "1/20"],
    ["sin", "--x", "-1", "--eps", "1e-6", "--zerone"],
    ["fixcos", "--format", UNIT, "--eps", "1/4", "--x", "1/2"],
    ["fixsin", "--format", UNIT, "--eps", "1/4", "--x", "1", "--json"],
    ["repro-table1"],
    ["golden", "--x", "50", "--eps", "1/100000000", "--digits", "10"],
    ["verify", "--suite", "identities", "--samples", "3"],
    ["verify", "--suite", "bounds", "--samples", "2"],
    ["verify", "--suite", "appendix", "--samples", "2"],
]


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_fresh(argv: list[str], block_numpy: bool,
              timeout: float = 120) -> subprocess.CompletedProcess:
    """cli.main(argv) in a new interpreter; with block_numpy, importing numpy fails."""
    block = "sys.modules['numpy'] = None" if block_numpy else ""
    script = f"import sys\n{block}\nfrom trigcheck import cli\nsys.exit(cli.main({argv!r}))"
    return subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)


def test_every_subcommand_runs_without_numpy():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv in COMMANDS} == set(subparsers.choices)
    for argv in COMMANDS:
        proc = run_fresh(argv, block_numpy=True)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_repro_table_cap_prints_only_the_cap_message():
    # the binary32 terms overflow to inf; the overflow must not print warnings
    proc = run_fresh(["repro-table1", "--min", "100", "--max", "100", "--cap", "1000"],
                     block_numpy=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("trigcheck: no convergence: term overflowed to infinity "
                           "at iteration 25\n")


def test_infinite_term_ends_the_row_at_once():
    # the term is infinite after 25 iterations; running on to a cap of 10^9
    # would take minutes
    proc = run_fresh(["repro-table1", "--min", "100", "--max", "100",
                      "--cap", "1000000000"], block_numpy=False, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("trigcheck: no convergence: term overflowed to infinity "
                           "at iteration 25\n")


def test_closed_stdout_ends_quietly():
    # about 30 000 rows, far past a pipe buffer, so a write meets the closed pipe;
    # in a child, because the handler's os.dup2 must not reach this process's stdout
    with subprocess.Popen([sys.executable, "-m", "trigcheck.cli", "repro-table1",
                           "--step", "0.001"], env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_repro_table_defaults_are_binary32_bit_for_bit():
    # the string defaults parse through binary64, as numpy parses them
    args = cli.build_parser().parse_args(["repro-table1"])
    for name, text in (("min", "0"), ("max", "30"), ("step", "0.05"), ("eps", "1e-6")):
        parsed = getattr(args, name)
        assert type(parsed) is float
        assert parsed.hex() == float(np.float32(text)).hex()


def test_import_loads_neither_dataclasses_nor_inspect():
    # diffed against the modules loaded before the import, as site loads its own first
    script = ("import sys\nbefore = set(sys.modules)\nimport trigcheck, trigcheck.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "trigcheck.cli" in added
    assert not {"dataclasses", "inspect"} & added
