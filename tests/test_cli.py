"""Command-line interface: exit codes, formats, and report round-trips."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactq
from exactq import __version__, cli, recurrence
from exactq.cli import main
from exactq.recurrence import CHAIN_LIMIT


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def module_env(**changes: str | None) -> dict[str, str]:
    """The environment for `python -m exactq` from this checkout, with
    `changes` applied (None removes a variable)."""
    src = str(Path(exactq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


class TestVerifyCommand:
    def test_gap_two_plan_passes(self, capsys):
        code, out = run(capsys, "verify", "--family", "unb", "--d", "2", "--n", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert payload["worst_case_queries"] == 4
        assert payload["claimed_bound"] == 4
        assert payload["tool_version"] == __version__

    def test_padded_reduction(self, capsys):
        code, out = run(capsys, "verify", "--family", "exactkl",
                        "--n", "5", "--k", "1", "--l", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert payload["worst_case_queries"] <= 3

    def test_module_entry_point_matches_in_process_main(self, capsys):
        argv = ["verify", "--family", "unb", "--n", "6", "--d", "2"]
        code, out = run(capsys, *argv)
        done = subprocess.run([sys.executable, "-m", "exactq", *argv], capture_output=True,
                              text=True, env=module_env(), timeout=120)
        assert (done.returncode, done.stdout) == (code, out)

    def test_invalid_gap_exits_2(self, capsys):
        assert main(["verify", "--family", "unb", "--d", "0", "--n", "4"]) == 2

    def test_missing_required_param_exits_2(self, capsys):
        assert main(["verify", "--family", "unb", "--n", "8"]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "unb", "--d", "1", "--n", "3", "--bogus"])
        assert exc.value.code == 2

    def test_verbose_includes_inputs_checked(self, capsys):
        code, out = run(capsys, "verify", "--family", "equality", "--n", "3", "--verbose")
        assert code == 0
        assert json.loads(out)["inputs_checked"] == 8

    def test_csv_is_rfc4180(self, capsys):
        code, out = run(capsys, "verify", "--family", "equality", "--n", "3",
                        "--format", "csv")
        assert code == 0
        assert out.count("\r\n") == 2
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "family"
        assert rows[1][0] == "equality"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "verify", "--family", "equality", "--n", "2",
                        "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["exact"] is True

    def test_sym_family(self, capsys):
        code, out = run(capsys, "verify", "--family", "sym", "--a", "00100")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert payload["params"]["strategy"] == "two-sided-center-sweep"

    def test_env_tolerance_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("EXACTQ_TOL", "not-a-float")
        assert main(["verify", "--family", "equality", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "EXACTQ_TOL" in captured.err
        # The flag wins, so the environment is not read.
        assert main(["verify", "--family", "equality", "--n", "2", "--tol", "1e-9"]) == 0
        monkeypatch.setenv("EXACTQ_TOL", "1e-6")
        assert main(["verify", "--family", "equality", "--n", "2"]) == 0
        capsys.readouterr()

    def test_branch_tol_flag_is_read(self, capsys):
        # Pruning every branch of weight at most 0.5 loses mass on
        # unb(5,1), so the check fails only when the flag is applied.
        argv = ["verify", "--family", "unb", "--n", "5", "--d", "1"]
        assert main(argv) == 0
        assert main([*argv, "--branch-tol", "0.5"]) == 1
        capsys.readouterr()

    def test_text_lists_sorted_report_keys(self, capsys):
        code, out = run(capsys, "verify", "--family", "equality", "--n", "3",
                        "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert "exact: True" in lines
        assert "worst_case_queries: 2" in lines
        assert f"tool_version: {__version__}" in lines


EQUALITY2 = ["verify", "--family", "equality", "--n", "2"]


@pytest.mark.parametrize("argv,env", [
    ([*EQUALITY2, "--tol", "nan"], None),
    ([*EQUALITY2, "--tol", "-1"], None),
    ([*EQUALITY2, "--tol", "inf"], None),
    ([*EQUALITY2, "--branch-tol", "2"], None),
    ([*EQUALITY2, "--branch-tol", "-0.5"], None),
    (EQUALITY2, "nan"),
    (["constants", "--n", "3", "--d", "1", "--tol", "nan"], None),
    (["poly", "--family", "unbr", "--n", "3", "--d", "1", "--branch-tol", "1"], None),
], ids=["tol-nan", "tol-negative", "tol-inf", "branch-tol-2", "branch-tol-negative", "env-nan",
        "constants-tol-nan", "poly-branch-tol-1"])
def test_meaningless_tolerance_exits_2(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("EXACTQ_TOL", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "tol" in captured.err.lower()


@pytest.mark.parametrize("flag", ["--tol", "--branch-tol"])
def test_zero_tolerance_runs(flag, capsys):
    assert main([*EQUALITY2, flag, "0"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["exact"] in (True, False)


@pytest.mark.parametrize("argv", [
    ["gamma", "--d", "1", "--n-max", "5", "--tol", "1e-300"],
    ["gamma", "--d", "1", "--n-max", "5", "--branch-tol", "0.5"],
    ["gamma", "--d", "1", "--n-max", "5", "--verbose"],
    ["constants", "--n", "3", "--d", "1", "--branch-tol", "0.5"],
    ["constants", "--n", "3", "--d", "1", "--verbose"],
    ["poly", "--family", "unbr", "--n", "3", "--d", "1", "--verbose"],
], ids=["gamma-tol", "gamma-branch-tol", "gamma-verbose", "constants-branch-tol",
        "constants-verbose", "poly-verbose"])
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--family", "unb", "--n", "41", "--d", "1"], "n=41 exceeds the enumeration limit 20"),
    (["verify", "--family", "exactkl", "--n", "21", "--k", "0", "--l", "1"],
     "n=21 exceeds the enumeration limit 20"),
    (["verify", "--family", "sym", "--a", "0" * 22], "n=21 exceeds the enumeration limit 20"),
    (["poly", "--family", "unb", "--n", "15", "--d", "1"], "n=15 exceeds the extraction limit 14"),
    (["poly", "--family", "sym", "--a", "01" * 8], "n=15 exceeds the extraction limit 14"),
], ids=["verify-unb", "verify-exactkl", "verify-sym", "poly-unb", "poly-sym"])
def test_over_limit_n_exits_2_before_building(argv, message, capsys, monkeypatch):
    def refuse(config):
        raise AssertionError(f"built a plan for {argv}")

    monkeypatch.setattr(cli, "build_family", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["verify", "--family", "equality", "--n", "2"],
                                     ["gamma", "--d", "1", "--n-max", "5"]], ids=["verify", "gamma"])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_out_exits_2(command, where, capsys, tmp_path):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    assert main([*command, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {target}: ")
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["gamma", "--d", "1", "--n-max"], ["constants", "--d", "1", "--n"]],
                         ids=["gamma", "constants"])
def test_an_over_limit_chain_exits_2_before_any_recurrence_step(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"ran the recurrence for {argv}")

    for owner, name in ((cli, "gamma_chain"), (recurrence, "gamma_chain"), (recurrence, "gamma_next")):
        monkeypatch.setattr(owner, name, refuse)
    assert main([*argv, str(CHAIN_LIMIT + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[-1]}={CHAIN_LIMIT + 1} exceeds the gamma chain limit {CHAIN_LIMIT}\n"


def test_a_chain_at_the_limit_runs(capsys):
    code, out = run(capsys, "gamma", "--d", "2", "--n-max", str(CHAIN_LIMIT))
    assert code == 0
    assert strict_json(out)["rows"][-1]["n"] == CHAIN_LIMIT
    code, out = run(capsys, "constants", "--d", "2", "--n", str(CHAIN_LIMIT))
    assert code == 0
    assert strict_json(out)["n"] == CHAIN_LIMIT


def strict_json(text: str):
    """`text` parsed as JSON, refusing NaN and Infinity, which JSON lacks."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "unb", "--n", "5", "--d", "1", "--verbose"],
    ["verify", "--family", "unbr", "--n", "4", "--d", "2"],
    ["verify", "--family", "sym", "--a", "0110"],
    ["verify", "--family", "unb", "--n", "21", "--d", "1"],
    ["poly", "--family", "unbr", "--n", "3", "--d", "1"],
    ["poly", "--family", "equality", "--n", "15"],
    ["gamma", "--d", "1", "--n-max", "9"],
    ["gamma", "--d", "3"],
    ["gamma", "--d", "2", "--k0", "4", "--gamma0", "0.9"],
    ["gamma", "--d", "1", "--k0", "0", "--gamma0", "1e308"],
    ["gamma", "--d", "1", "--k0", "0", "--gamma0", "inf"],
    ["gamma", "--d", "1", "--gamma0", "nan"],
    ["gamma", "--d", "1", "--n-max", str(CHAIN_LIMIT + 1)],
    ["constants", "--n", "3", "--d", "1"],
    ["constants", "--n", "5", "--d", "3"],
    ["constants", "--appendix-a"],
    ["constants", "--n", "3", "--d", "3"],
    ["constants", "--n", str(CHAIN_LIMIT + 1), "--d", "1"],
])
def test_every_json_report_is_json(argv, capsys):
    # A float NaN or infinity prints as `NaN` or `Infinity`, which no JSON
    # parser need accept: a report prints neither, and a refusal prints
    # nothing.
    code, out = run(capsys, *argv)
    if code == 2:
        assert out == ""
    else:
        assert code in (0, 1)
        assert isinstance(strict_json(out), dict)


def test_poly_refuses_an_over_limit_subroutine_before_extracting(capsys, monkeypatch):
    # exactkl(8, 0, 1) pads to unb(15, 1): n = 8 passes, its subroutine does not.
    def refuse(*args, **kwargs):
        raise AssertionError("extracted before the subroutine limit check")

    monkeypatch.setattr(cli, "extract_multilinear", refuse)
    assert main(["poly", "--family", "exactkl", "--n", "8", "--k", "0", "--l", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subroutine n=15 exceeds the extraction limit 14\n"


class TestGammaCommand:
    def test_gap_one_table(self, capsys):
        code, out = run(capsys, "gamma", "--d", "1", "--n-max", "9")
        assert code == 0
        payload = json.loads(out)
        rows = {r["n"]: r["gamma"] for r in payload["rows"]}
        assert rows[5] == pytest.approx(1 / 126)
        assert rows[9] == pytest.approx(1 / 325)
        assert payload["valid"] and payload["decays"]

    def test_matching_base_k0(self, capsys):
        code, out = run(capsys, "gamma", "--d", "3", "--k0", "1", "--n-max", "23")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1]["n"] == 23
        assert rows[-1]["gamma"] == pytest.approx(0.0304, abs=1e-3)

    def test_short_gap_two_table(self, capsys):
        code, out = run(capsys, "gamma", "--d", "2", "--n-max", "4")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1] == {"n": 4, "gamma": pytest.approx(1 / 9), "decayed": True}

    def test_diverging_start_exits_1(self, capsys):
        code, _ = run(capsys, "gamma", "--d", "2", "--k0", "4", "--gamma0", "0.9")
        assert code == 1

    def test_custom_k0_without_gamma0_exits_2(self, capsys):
        assert main(["gamma", "--d", "2", "--k0", "7"]) == 2

    def test_nan_gamma0_exits_2(self, capsys):
        # It printed `"gamma": NaN`, which is not JSON, and exited 1.
        assert main(["gamma", "--d", "1", "--gamma0", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma0 must be nonnegative, got nan\n"

    def test_infinite_gamma0_exits_2(self, capsys):
        # It printed `"gamma": Infinity`, which is not JSON, and exited 1.
        assert main(["gamma", "--d", "1", "--k0", "0", "--gamma0", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma0 must be finite, got inf\n"

    def test_csv_rows(self, capsys):
        code, out = run(capsys, "gamma", "--d", "1", "--n-max", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "gamma", "decayed"]
        assert float(rows[-1][1]) == pytest.approx(1 / 126)

    def test_text_table(self, capsys):
        code, out = run(capsys, "gamma", "--d", "1", "--n-max", "5", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d=1 k0=0 valid=True decays=True"
        assert lines[1:] == [
            "  n=  1  gamma=0  decayed=True",
            "  n=  3  gamma=0.015625  decayed=True",
            "  n=  5  gamma=0.00793650793651  decayed=True",
        ]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "gamma.csv"
        code, out = run(capsys, "gamma", "--d", "1", "--n-max", "5", "--format", "csv",
                        "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_bytes().decode("utf-8")
        assert text.count("\r\n") == 4
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "gamma", "decayed"]
        assert [int(r[0]) for r in rows[1:]] == [1, 3, 5]


class TestPolyCommand:
    def test_audit_reported(self, capsys):
        code, out = run(capsys, "poly", "--family", "unbr", "--n", "3", "--d", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["audit_ok"] is True
        assert payload["degree"] == 2
        assert payload["q_values"] == pytest.approx([0.0, 1.0, 1.0, 0.0])

    def test_large_n_exits_2(self, capsys):
        assert main(["poly", "--family", "equality", "--n", "15"]) == 2

    def test_text_report(self, capsys):
        code, out = run(capsys, "poly", "--family", "unbr", "--n", "3", "--d", "1",
                        "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["family: unbr", "degree: 2", "  alpha[empty] = 0.75"]
        assert "  alpha[1 2] = -0.25" in lines
        assert lines[-2] == "q values: 0 1 1 0"
        assert lines[-1].startswith("leaf degree audit: ")
        assert lines[-1].endswith(" records, ok=True")

    def test_csv_coefficients(self, capsys):
        code, out = run(capsys, "poly", "--family", "unbr", "--n", "3", "--d", "1",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["subset", "coefficient"]
        coeffs = {subset: float(value) for subset, value in rows[1:]}
        assert coeffs == pytest.approx({"": 0.75, "1 2": -0.25, "1 3": -0.25, "2 3": -0.25})


class TestConstantsCommand:
    def test_first_step_closed_forms(self, capsys):
        code, out = run(capsys, "constants", "--n", "3", "--d", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["c1"] == pytest.approx(-1 / 8)
        assert payload["max_residual"] < 1e-12

    def test_printed_table(self, capsys):
        code, out = run(capsys, "constants", "--appendix-a")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["constants"]) == 18
        assert payload["max_residual"] < 1e-12
        assert payload["queries"] == 2
        assert payload["gamma"] == pytest.approx(1 / 112)

    def test_degenerate_point_exits_2(self, capsys):
        assert main(["constants", "--n", "3", "--d", "3"]) == 2

    @pytest.mark.parametrize("n,d,allowed", [(4, 1, "odd values from 3 up"), (5, 3, "odd values from 7 up"),
                                             (2, 1, "odd values from 3 up")])
    def test_off_chain_n_names_the_flag(self, n, d, allowed, capsys):
        assert main(["constants", "--n", str(n), "--d", str(d)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n={n} is off the d={d} chain: --n takes {allowed}\n"

    def test_missing_n_names_the_command(self, capsys):
        assert main(["constants", "--d", "3"]) == 2
        assert capsys.readouterr().err == "error: --n is required for the constants command\n"

    def test_step_constants_text(self, capsys):
        code, out = run(capsys, "constants", "--n", "3", "--d", "1", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[0] == "  c1 = -0.125"
        assert lines[11] == "  gamma = 0.015625"
        assert lines[12].startswith("max residual: ")

    def test_step_constants_csv(self, capsys):
        code, out = run(capsys, "constants", "--n", "3", "--d", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value"]
        assert [r[0] for r in rows[1:]] == [f"c{i}" for i in range(1, 12)] + ["gamma"]
        assert float(rows[1][1]) == pytest.approx(-1 / 8)

    def test_printed_table_text(self, capsys):
        code, out = run(capsys, "constants", "--appendix-a", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert [line.split(" = ")[0] for line in lines[:18]] == [f"  c{i}" for i in range(1, 19)]
        assert float(lines[0].split(" = ")[1]) == pytest.approx(1 / 112 ** 0.5, rel=1e-11)
        assert lines[18].startswith("max residual: ")
        assert len(lines) == 19

    def test_printed_table_csv(self, capsys):
        code, out = run(capsys, "constants", "--appendix-a", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "value"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 19))
        assert float(rows[1][1]) == pytest.approx(1 / 112 ** 0.5, abs=1e-15)

    def test_tol_flag_wins_over_environment(self, capsys, monkeypatch):
        # The step-constant residual at (5, 1) is about 5.6e-17, so the
        # exit code shows which tolerance was applied.
        monkeypatch.setenv("EXACTQ_TOL", "1e-20")
        assert main(["constants", "--n", "5", "--d", "1"]) == 1
        assert main(["constants", "--n", "5", "--d", "1", "--tol", "1e-9"]) == 0
        monkeypatch.setenv("EXACTQ_TOL", "1e-9")
        assert main(["constants", "--n", "5", "--d", "1", "--tol", "1e-20"]) == 1
        capsys.readouterr()


# (environment changes, command line): one sequence over all four
# subcommands, run in one process and then line by line in fresh ones. OUT
# stands for a file path.
REUSED_PARSER_SEQUENCE = [
    ({}, ["verify", "--family", "equality", "--n", "3", "--verbose"]),
    ({}, ["verify", "--family", "equality", "--n", "3"]),
    ({"COLUMNS": "40"}, ["verify", "--family", "unb", "--d", "1", "--n", "3", "--bogus"]),
    ({}, ["verify", "--family", "unb", "--d", "2"]),
    ({}, ["gamma", "--d", "1", "--n-max", "5", "--format", "csv"]),
    ({}, ["gamma", "--d", "1", "--n-max", "5", "--format", "text"]),
    ({}, ["gamma", "--d", "1", "--n-max", "5"]),
    ({"EXACTQ_TOL": "1e-20"}, ["constants", "--n", "5", "--d", "1"]),
    ({}, ["constants", "--n", "5", "--d", "1"]),
    ({}, ["poly", "--family", "unbr", "--n", "3", "--d", "1", "--out", "OUT"]),
    ({}, ["poly", "--family", "unbr", "--n", "3", "--d", "1", "--format", "text"]),
    ({"COLUMNS": "100"}, ["constants", "--help"]),
    ({}, ["constants", "--appendix-a", "--format", "csv"]),
]


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    target = tmp_path / "report.json"
    base = {"EXACTQ_TOL": None, "COLUMNS": "80"}
    in_process = []
    for changes, argv in REUSED_PARSER_SEQUENCE:
        argv = [str(target) if arg == "OUT" else arg for arg in argv]
        for name, value in {**base, **changes}.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = target.read_bytes() if target.exists() else None
        target.unlink(missing_ok=True)
        in_process.append((code, captured.out, captured.err, written))
    assert {code for code, *_ in in_process} == {0, 1, 2}
    monkeypatch.undo()
    for (changes, argv), expected in zip(REUSED_PARSER_SEQUENCE, in_process):
        argv = [str(target) if arg == "OUT" else arg for arg in argv]
        # Bytes, so that CSV's CRLF line ends are compared as written.
        done = subprocess.run([sys.executable, "-m", "exactq", *argv], capture_output=True,
                              env=module_env(**{**base, **changes}), timeout=120)
        written = target.read_bytes() if target.exists() else None
        target.unlink(missing_ok=True)
        assert (done.returncode, done.stdout.decode(), done.stderr.decode(), written) == expected, argv


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    argv = ["gamma", "--d", "1", "--n-max", "5"]
    assert main(argv) == 0
    once = len(built)
    assert main(argv) == 0
    assert once > 0 and len(built) == once
    capsys.readouterr()
