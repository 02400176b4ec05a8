"""Property tests of the CLI contract over drawn argv.

A `--config` file is read into the same tokens that typed flags give, so a
run with its values in a file and a run with them as flags must print the
same bytes and exit the same way. Over any argv, valid or malformed, a run
ends in a documented exit code, prints no traceback and leaves the
interpreter's int-to-str digit limit as it was.

The draws stay cheap: pi's eps is at least 1/1000, |x| is at most 50, a
scan has at most a few hundred rows, and `verify` always gets `--samples`
of at most 2. The series oracles have no budget of their own yet (a pi eps
of 1e-9, or `cos --unbounded` with a huge x, runs for minutes), so inputs
that would need one are not drawn here.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from trigcheck import cli, verify

X = ["0", "1/2", "-1/2", "1", "-1", "7/10", "0.05", "3", "-50"]
EPS = ["1/2", "1/20", "1/1000", "0.001", "1/3", "3"]
FORMATS = ["1/256:[-8,64]", "1/65536:[-8,1024]", "1/4:[-2,2]"]
# malformed for every option below, so none of them can start a long run
BAD = ["", "abc", "1/0", "nan", "inf", "-", "1/2/3", "0x10", "1e2.5", "9" * 5000]

# subcommand -> option -> valid values; an option absent from a draw keeps
# its default, so each required option is drawn (verify's --samples too,
# whose default would run 50 or 100 samples)
VALID = {
    "pi": {"eps": EPS},
    "cos": {"x": X, "eps": EPS},
    "sin": {"x": X, "eps": EPS},
    "fixcos": {"format": FORMATS, "x": X, "eps": EPS},
    "fixsin": {"format": FORMATS, "x": X, "eps": EPS},
    "repro-table1": {"min": ["0", "1", "-2"], "max": ["0", "1", "5", "30"],
                     "step": ["0.1", "0.25", "1"], "eps": ["1e-6", "1e-3", "0.5"]},
    "golden": {"x": X, "eps": EPS, "digits": ["0", "1", "12", "40", "5000"]},
    "verify": {"suite": sorted(verify.SUITES), "samples": ["1", "2"],
               "seed": ["0", "7", "-5", "123456789"]},
}
OPTIONAL = {"repro-table1": {"cap": ["1", "10", "1000"]}}
FLAGS = {"pi": ["json"], "cos": ["json", "unbounded", "zerone"],
         "sin": ["json", "unbounded", "zerone"], "fixcos": ["json"], "fixsin": ["json"]}
EXCLUSIVE = {"unbounded", "zerone"}


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def flags_of(command: str):
    if command not in FLAGS:
        return st.just([])
    return st.lists(st.sampled_from(FLAGS[command]), unique=True)


@st.composite
def valid_runs(draw) -> tuple[str, list[tuple[str, str | None]]]:
    """A subcommand and its (key, value) pairs; value None is a bare flag."""
    command = draw(st.sampled_from(sorted(VALID)))
    pairs = [(key, draw(st.sampled_from(values))) for key, values in VALID[command].items()]
    for key, values in OPTIONAL.get(command, {}).items():
        if draw(st.booleans()):
            pairs.append((key, draw(st.sampled_from(values))))
    flags = draw(flags_of(command))
    if EXCLUSIVE <= set(flags):
        flags.remove("zerone")
    return command, draw(st.permutations(pairs + [(flag, None) for flag in flags]))


@settings(max_examples=150, deadline=None)
@given(valid_runs())
def test_config_values_run_as_the_same_flags(case):
    command, pairs = case
    flags = [f"--{key}" if value is None else f"--{key}={value}" for key, value in pairs]
    lines = [f"{key}=true" if value is None else f"{key} = {value}" for key, value in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text("\n".join(["# drawn", *lines, ""]), encoding="utf-8")
        from_file = run(["--config", str(config), command])
    assert from_file == run([command, *flags])


# every option of every subcommand, some prefixes and some strays
OPTIONS = sorted({f"--{key}" for table in (VALID, OPTIONAL) for keys in table.values()
                  for key in keys} | {f"--{flag}" for flags in FLAGS.values() for flag in flags}
                 | {"--trace", "--csv", "--config", "--conf", "--e", "--bogus", "-h"})
# "\udcff" is written as the byte 0xff, which is not UTF-8
CONFIG_LINES = ["eps=1/2", "json=true", "x=-1/2", "zerone=true", "unbounded=true",
                "samples=0", "cap=0", "bogus=1", "trace=true", "# note", "digits=abc", "=",
                "\udcff"]


@st.composite
def any_argv(draw) -> tuple[list[str], str | None]:
    """Argv whose values may be malformed, with stray tokens, and the text of
    the config file it may name; "{dir}" stands for a fresh directory."""
    command = draw(st.sampled_from([*sorted(VALID), "bogus"]))
    argv = [command]
    for key, values in {**VALID.get(command, {}), **OPTIONAL.get(command, {})}.items():
        # verify always gets --samples: its default runs 50 or 100 samples
        if key == "samples" or draw(st.integers(0, 9)) > 0:
            argv.append(f"--{key}={draw(st.sampled_from(values + BAD))}")
    argv += [f"--{flag}" for flag in draw(flags_of(command))]
    if command.startswith("fix") and draw(st.booleans()):
        argv.append("--trace={dir}/" + draw(st.sampled_from(["t.csv", "t.json", "no/t.csv", ""])))
    if command == "repro-table1" and draw(st.booleans()):
        argv.append("--csv={dir}/" + draw(st.sampled_from(["r.csv", "no/r.csv", ""])))
    stray = draw(st.lists(st.sampled_from(OPTIONS + BAD[:4]), max_size=2))
    argv[draw(st.integers(0, len(argv))):0] = stray
    config = draw(st.none() | st.lists(st.sampled_from(CONFIG_LINES), max_size=3))
    if config is not None:
        spelling = draw(st.sampled_from(["--config", "--conf", "--c"]))
        target = draw(st.sampled_from(["{dir}/run.cfg", "{dir}/missing.cfg", "{dir}"]))
        argv[:0] = [spelling, target]
        config = "\n".join(config)
    return argv, config


@settings(max_examples=300, deadline=None)
@given(any_argv())
def test_any_argv_ends_in_a_documented_exit(case):
    argv, config = case
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "run.cfg").write_bytes(config.encode("utf-8", "surrogateescape"))
        code, _, err = run([token.replace("{dir}", tmp) for token in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert limit() == before
