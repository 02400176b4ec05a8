"""Command-line behavior: outputs, exit codes, config file, trace files."""

from __future__ import annotations

import json

import pytest

from trigcheck import cli
from trigcheck.errors import BoundViolation


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pi_subcommand(capsys):
    code, out, _ = run_cli(capsys, "pi", "--eps", "1/2")
    assert code == 0
    assert "value = 304/105" in out
    assert "iterations = 3" in out


def test_pi_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "pi", "--eps", "1/2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "304/105"
    assert json.dumps(payload, sort_keys=True) == out.strip()


def test_cos_variants(capsys):
    code, out, _ = run_cli(capsys, "cos", "--x", "1", "--eps", "1/20")
    assert code == 0 and "value = 1/2" in out

    code, out, _ = run_cli(capsys, "cos", "--x", "1", "--eps", "1/20", "--zerone")
    assert code == 0 and "value = " in out

    code, out, _ = run_cli(capsys, "cos", "--x", "50", "--eps", "1e-8", "--unbounded")
    assert code == 0 and "decimal = 0.964966028" in out


def test_fixcos_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fixcos", "--format", "1/256:[-8,64]",
                           "--eps", "1/4", "--x", "1/2")
    assert code == 0
    assert "value = 224/256" in out
    assert "n = 2" in out
    assert "bound = 89/340" in out


def test_fixcos_trace_files(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "fixcos", "--format", "1/256:[-8,64]",
                           "--eps", "1/4", "--x", "1/2", "--trace", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,tc,cs,tcfp,csfp,delta,delta_bound,ep,epfp"
    assert len(lines) == 2

    json_path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "fixsin", "--format", "1/256:[-8,64]",
                         "--eps", "1/4", "--x", "1/2", "--trace", str(json_path))
    assert code == 0
    records = json.loads(json_path.read_text())
    assert isinstance(records, list)


def test_golden_subcommand(capsys):
    code, out, _ = run_cli(capsys, "golden", "--x", "50",
                           "--eps", "1/100000000", "--digits", "10")
    assert code == 0
    assert out.strip() == "0.9649660286"


def test_repro_table_output(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "repro-table1", "--min", "0", "--max", "0.1",
                           "--step", "0.05", "--csv", str(csv_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "0.000000e+00"
    assert csv_path.read_text().startswith("x,value\n")


def test_repro_table_cap_exit_code(capsys):
    # the binary32 terms overflow to inf at iteration 25, long before the cap,
    # and never fall below eps; the golden corpus pins the plain cap and stall
    # messages
    code, out, err = run_cli(capsys, "repro-table1", "--min", "100", "--max", "100",
                             "--cap", "1000")
    assert (code, out) == (2, "")
    assert err == "trigcheck: no convergence: term overflowed to infinity at iteration 25\n"


def test_repro_table_infinite_argument_overflows_at_once(capsys):
    # 1e39 rounds to inf in binary32, so the first term is already infinite
    code, out, err = run_cli(capsys, "repro-table1", "--min", "1e39", "--max", "1e39")
    assert (code, out) == (2, "")
    assert err == "trigcheck: no convergence: term overflowed to infinity at iteration 1\n"


@pytest.mark.parametrize("raw", ["abc", "1e3", "0", "-3"])
def test_bad_iteration_cap_env_names_the_variable(monkeypatch, capsys, raw):
    monkeypatch.setenv("TRIGCHECK_ITER_CAP", raw)
    code, out, err = run_cli(capsys, "repro-table1", "--max", "1")
    assert (code, out) == (2, "")
    assert err == f"trigcheck: TRIGCHECK_ITER_CAP must be a positive integer, got {raw!r}\n"


def test_iteration_cap_env_takes_int_syntax(monkeypatch, capsys):
    # int() strips surrounding whitespace, so " 5" is a cap of 5
    monkeypatch.setenv("TRIGCHECK_ITER_CAP", " 5")
    code, out, err = run_cli(capsys, "repro-table1", "--min", "100", "--max", "100")
    assert (code, out) == (2, "")
    assert err == "trigcheck: no convergence within 5 iterations\n"


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities",
                           "--samples", "5", "--seed", "7")
    assert code == 0
    assert out.startswith("PASS suite=identities seed=7")


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(capsys, "fixcos", "--format", "1/256:[-8,64]",
                           "--eps", "1/4", "--x", "1/3")
    assert code == 2
    assert "multiple" in err

    code, _, err = run_cli(capsys, "golden", "--x", "1", "--eps", "0", "--digits", "4")
    assert code == 2
    assert "eps" in err


def test_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["pi"])  # missing required --eps
    assert info.value.code == 1

    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 1


def test_verification_failure_exit_code(capsys, monkeypatch):
    def explode(eps):
        raise BoundViolation("headline", detail="forced for the exit-code test")

    monkeypatch.setattr(cli.oracle, "pi_leibniz", explode)
    code, _, err = run_cli(capsys, "pi", "--eps", "1/2")
    assert code == 3
    assert "verification failed" in err


def test_failing_verify_run_lists_at_most_50_failures(capsys, monkeypatch):
    # no real input fails a suite, so a fault in every cosine run stands in for one
    def explode(x, eps):
        raise BoundViolation("headline", detail="forced for the failing-suite test")

    monkeypatch.setattr(cli.verify.fixtrig, "cos_fixpoint", explode)
    code, out, err = run_cli(capsys, "verify", "--suite", "bounds", "--samples", "10")
    lines = out.splitlines()
    assert (code, err) == (3, "")
    assert lines[0].startswith("FAIL suite=bounds seed=0 samples=10 ")
    assert int(lines[0].rsplit("failures=", 1)[1]) > 50
    assert len(lines) == 51
    assert all(line.startswith("  FAIL cos fmt=") for line in lines[1:])


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults for the pi run\neps = 1/2\n")
    code, out, _ = run_cli(capsys, "--config", str(config), "pi")
    assert code == 0
    assert "iterations = 3" in out

    # explicit flags win over config values
    code, out, _ = run_cli(capsys, "--config", str(config), "pi", "--eps", "1/4")
    assert code == 0
    assert "iterations = 7" in out


def test_config_value_may_start_with_a_minus(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("x=-1/2\neps=1/1000\n")
    expected = run_cli(capsys, "sin", "--x=-1/2", "--eps", "1/1000")
    assert expected[0] == 0
    assert run_cli(capsys, "--config", str(config), "sin") == expected
    # explicit flags win over config values
    explicit = run_cli(capsys, "--config", str(config), "sin", "--x", "1/2")
    assert explicit == run_cli(capsys, "sin", "--x", "1/2", "--eps", "1/1000") != expected


def test_config_given_with_an_equals_sign(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("eps = 1/2\n")
    expected = run_cli(capsys, "--config", str(config), "pi")
    assert expected[0] == 0
    assert run_cli(capsys, f"--config={config}", "pi") == expected
    code, out, _ = run_cli(capsys, f"--config={config}", "pi", "--eps", "1/4")
    assert code == 0
    assert "iterations = 7" in out


def test_missing_config_is_usage_error(capsys):
    code, _, err = usage_error(capsys, "--config", "/nonexistent/path.cfg", "pi", "--eps", "1")
    assert code == 1
    assert "config" in err


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"x=\xff\n")
    code, out, err = usage_error(capsys, "--config", str(config), "cos", "--x", "1",
                                 "--eps", "1/2")
    assert code == 1
    assert out == ""
    assert err.startswith("trigcheck: cannot read config: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def usage_error(capsys, *argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_config_option_may_be_abbreviated(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("eps=1/2\n")
    expected = run_cli(capsys, "pi", "--eps", "1/2")
    assert expected[0] == 0
    assert run_cli(capsys, "--conf", str(config), "pi") == expected
    assert run_cli(capsys, f"--conf={config}", "pi") == expected


@pytest.mark.parametrize("argv, flag", [
    (["pi", "--eps", "1/2"], "json"),
    (["cos", "--x", "1/2", "--eps", "1/20"], "zerone"),
    (["sin", "--x", "50", "--eps", "1e-8"], "unbounded"),
    (["fixsin", "--format", "1/256:[-8,64]", "--eps", "1/4", "--x", "1/2"], "json"),
])
def test_config_sets_a_flag_by_key_true(tmp_path, capsys, argv, flag):
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag}=true\n")
    expected = run_cli(capsys, *argv, f"--{flag}")
    assert expected[0] == 0
    assert expected != run_cli(capsys, *argv)
    assert run_cli(capsys, "--config", str(config), *argv) == expected


@pytest.mark.parametrize("line, argv", [
    ("samples=0", ["verify", "--suite", "bounds"]),
    ("cap=0", ["repro-table1", "--max", "1"]),
])
def test_config_value_goes_through_the_flags_check(tmp_path, capsys, line, argv):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code, out, err = usage_error(capsys, "--config", str(config), *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"argument --{line[:-2]}: must be at least 1, got 0\n")


def test_config_flags_keep_their_mutual_exclusion(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("unbounded=true\nzerone=true\n")
    code, out, err = usage_error(capsys, "--config", str(config), "cos", "--x", "1/2",
                                 "--eps", "1/20")
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


def test_config_with_an_unknown_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("eps=1/2\nepsilon=1/4\n")
    code, out, err = usage_error(capsys, "--config", str(config), "pi")
    assert (code, out) == (1, "")
    assert "--epsilon=1/4" in err


def test_config_that_is_a_directory_is_usage_error(tmp_path, capsys):
    code, out, err = usage_error(capsys, "--config", str(tmp_path), "pi", "--eps", "1/2")
    assert (code, out) == (1, "")
    assert err.startswith("trigcheck: cannot read config: [Errno 21] Is a directory")
    assert err.count("\n") == 1


def test_only_a_config_read_failure_is_labelled_config(monkeypatch, capsys):
    # any other OSError raised while parsing, here by an option's type, propagates
    def closed_pipe(text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_rational", closed_pipe)
    with pytest.raises(BrokenPipeError):
        cli.main(["pi", "--eps", "1/2"])
    assert "config" not in capsys.readouterr().err
