"""numpy is loaded by the binary32 routines only, and loads the same values.

Each check runs in a fresh interpreter, since this test process has loaded
numpy already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import trigcheck
from trigcheck import cli

SRC = str(Path(trigcheck.__file__).resolve().parents[1])

NUMPY_FREE = [
    ["pi", "--eps", "1/2"],
    ["cos", "--x", "1", "--eps", "1/20"],
    ["fixcos", "--format", "1/256:[-8,64]", "--eps", "1/4", "--x", "1/2"],
    ["golden", "--x", "50", "--eps", "1/100000000", "--digits", "10"],
    ["verify", "--suite", "identities", "--samples", "3"],
]


def numpy_loaded_after(code: str) -> bool:
    """Run code in a fresh interpreter; report whether numpy got imported."""
    script = f"import sys\n{code}\nprint('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def test_import_and_numpy_free_commands_leave_numpy_unloaded():
    assert not numpy_loaded_after("import trigcheck")
    for argv in NUMPY_FREE:
        code = f"from trigcheck import cli\nassert cli.main({argv!r}) == 0"
        assert not numpy_loaded_after(code), argv


def test_binary32_routines_load_numpy():
    code = "from trigcheck import cli\nassert cli.main(['repro-table1', '--max', '1']) == 0"
    assert numpy_loaded_after(code)
    # the first call is the one that loads numpy; its value must already be exact
    assert numpy_loaded_after("import trigcheck\n"
                              "value = trigcheck.f32('0.05')\n"
                              "import numpy\n"
                              "assert type(value) is numpy.float32\n"
                              "assert value.tobytes() == numpy.float32('0.05').tobytes()")


def test_repro_table_defaults_are_float32_bit_for_bit():
    # the string defaults are converted when that subcommand is parsed
    args = cli.build_parser().parse_args(["repro-table1"])
    for name, text in (("min", "0"), ("max", "30"), ("step", "0.05"), ("eps", "1e-6")):
        parsed = getattr(args, name)
        assert type(parsed) is np.float32
        assert parsed.tobytes() == np.float32(text).tobytes()
