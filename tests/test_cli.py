"""CLI surface: label parsing, artifacts, exit codes, reproducibility."""

import argparse
import dataclasses
import importlib.util
import json
import os
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from grac import cli
from grac._seesaw import SeesawReport
from grac.eacc import eacc_optimum
from grac.errors import InvalidInputError
from grac.mubs import FunctionSet
from grac.quantum import seesaw
from grac.tables import TableReport, TableRow, representative_set


def test_parse_label_spec_all():
    fset = cli.parse_label_spec(3, "all")
    assert fset.ints == tuple(range(1, 8))


def test_parse_label_spec_cardinality():
    assert cli.parse_label_spec(3, "k=5").ints == (1, 2, 3, 4, 5)
    assert cli.parse_label_spec(3, "k=4:xor-closed").ints == (1, 2, 4, 7)
    assert cli.parse_label_spec(3, "k=4:open").ints == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        cli.parse_label_spec(3, "k=4")  # class is required at cardinality 4
    with pytest.raises(ValueError):
        cli.parse_label_spec(3, "k=3:open")
    malformed_specs = ("k=x", "k=", "k=:open", "k=5_0", "k= 5", "k=+5", "k=-1", "k=\u0665")
    for malformed in malformed_specs + ("k=" + "1" * 5000,):  # past int()'s digit limit
        with pytest.raises(InvalidInputError, match="decimal integer"):
            cli.parse_label_spec(3, malformed)
    with pytest.raises(InvalidInputError, match="cardinality must be in 1..63, got 0"):
        cli.parse_label_spec(3, "k=0")
    with pytest.raises(InvalidInputError, match="k=8 exceeds the 7 nonzero labels of width 3"):
        cli.parse_label_spec(3, "k=8")
    with pytest.raises(InvalidInputError, match="k=16 exceeds the 15 nonzero labels of width 4"):
        cli.parse_label_spec(4, "k=16")
    assert cli.parse_label_spec(4, "k=9").ints == tuple(range(1, 10))
    pairs = [(2, None), (3, None), (4, "xor-closed"), (4, "open"), (5, None), (6, None), (7, None)]
    for k, qclass in pairs:
        spec = f"k={k}:{qclass}" if qclass else f"k={k}"
        assert cli.parse_label_spec(3, spec) == representative_set(k, qclass)
    assert cli.parse_label_spec(4, "k=4:xor-closed") == FunctionSet.from_ints(4, (1, 2, 4, 7))


def test_parse_label_spec_bitstrings():
    fset = cli.parse_label_spec(3, "100,010")
    assert fset == FunctionSet.from_ints(3, (4, 2))
    with pytest.raises(ValueError):
        cli.parse_label_spec(3, "10,01")  # width conflicts with --n


def test_classical_command(capsys):
    assert cli.main(["classical", "--n", "3", "--labels", "all"]) == 0
    out = capsys.readouterr().out
    assert "37/56" in out


def test_mubs_check(capsys):
    assert cli.main(["mubs", "--n", "3", "--check", "100,010,110"]) == 0
    assert "MUBS: true" in capsys.readouterr().out


def test_mubs_quadruple_class(capsys):
    assert cli.main(["mubs", "--n", "3", "--labels", "k=4:open"]) == 0
    assert "quadruple class: open" in capsys.readouterr().out


def test_quantum_command(capsys):
    rc = cli.main(["quantum", "--n", "3", "--labels", "100,010", "--seed", "7"])
    assert rc == 0
    assert "0.853553" in capsys.readouterr().out


def test_module_error_exit_code(capsys):
    rc = cli.main(["classical", "--n", "3", "--labels", "000,010"])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}


def test_noise_malformed_axis_is_module_error(capsys):
    assert cli.main(["noise", "--axis", "1,a,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "InvalidInputError"
    assert "--axis" in error["message"] and "1,a,0" in error["message"]


def test_sweep_malformed_axis_is_module_error(capsys):
    assert cli.main(["noise", "--channel", "dephasing", "--axis", "1,a,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "InvalidInputError"
    assert error["message"] == "--axis must be comma-separated numbers, got '1,a,0'"


def test_sweep_on_an_axis_whose_norm_overflows_runs_without_a_warning(capsys):
    argv = ["noise", "--labels", "k=2", "--channel", "dephasing", "--axis", "1e308,1e308,0",
            "--grid-points", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert caught == []
    assert capsys.readouterr().err == ""


def test_sweep_huge_grid_is_module_error(capsys):
    argv = ["noise", "--labels", "k=3", "--channel", "dephasing", "--grid-points", str(10**20)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "InvalidInputError"
    assert "at most 10001 grid points" in error["message"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--axis", "1,0,0"],
        ["--grid-points", "5"],
        ["--channel", "depolarizing", "--axis", "1,0,0"],
        ["--channel", "depolarizing", "--grid-points", "1", "--axis", "0,0,0"],
        ["--channel", "depolarizing", "--grid-points", "5"],
        ["--window", "k=4:open", "--channel", "depolarizing"],
    ],
)
def test_noise_refuses_flags_its_mode_ignores(flags, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    for name in ("critical_depolarizing", "dephasing_sweep", "crossing_window"):
        monkeypatch.setattr(cli, name, never)
    assert cli.main(["noise", "--labels", "k=5", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidInputError"


def test_classical_max_strategies_below_one_is_module_error(capsys):
    for bad in ("0", "-1"):
        rc = cli.main(["classical", "--labels", "all", "--max-strategies", bad])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidInputError"


def test_json_artifact_and_reproducibility(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["quantum", "--n", "3", "--labels", "k=3", "--restarts", "6", "--out"]
    assert cli.main(args + [str(out1)]) == 0
    assert cli.main(args + [str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    payload = json.loads(b1)
    assert payload["value"] == pytest.approx(0.788675134594813, abs=1e-6)
    assert set(payload["strategy"]) == {"preparations", "measurements"}
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == sorted(["a.json", "b.json"])


def test_quantum_artifact_carries_the_certificate(tmp_path, capsys):
    """The quantum artifact reports the best row's certificate; stdout does not."""
    out = tmp_path / "q.json"
    assert cli.main(["quantum", "--labels", "k=5", "--restarts", "8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["tangent_grad"] <= 1e-9
    assert payload["top_hessian_eig"] < 0
    assert "tangent" not in capsys.readouterr().out


def test_quantum_artifact_says_whether_it_meets_the_bound(tmp_path):
    """meets_bound reaches the quantum and eacc artifacts as the global
    certificate: true for a set on pm_upper_bound(k), false for the open
    quadruple."""
    read = {}
    for command, spec in (("quantum", "k=3"), ("quantum", "k=4:open"), ("eacc", "k=3")):
        out = tmp_path / f"{command}-{spec}.json"
        argv = [command, "--labels", spec, "--restarts", "4", "--out", str(out)]
        assert cli.main(argv) == 0
        read[command, spec] = json.loads(out.read_text())["meets_bound"]
    assert read == {("quantum", "k=3"): True, ("quantum", "k=4:open"): False, ("eacc", "k=3"): True}


def test_sweep_csv_header(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "noise",
            "--n",
            "3",
            "--labels",
            "k=5",
            "--channel",
            "dephasing",
            "--grid-points",
            "6",
            "--restarts",
            "2",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,one_minus_lambda,quantum_value,classical_value,ratio"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_a_sweep_above_the_newton_cap_keeps_its_value(tmp_path):
    """A k = 12 sweep, above the Newton cap, where each point's _FINISH_ROWS
    best running rows resume their trips after the hand-off, reads
    0.638902472825249 at lambda = 0.05 within 4 ulps.  Sending only each
    point's leader on there too lost 5.0e-6: it read 0.6388974721."""
    out = tmp_path / "sweep.json"
    argv = ["noise", "--n", "4", "--labels",
            "0001,0010,0011,0100,0101,0110,0111,1010,1011,1101,1110,1111",
            "--channel", "dephasing",
            "--axis=-1.2165884397663445,1.9181146289909743,-0.8309997636643557",
            "--grid-points", "11", "--seed", "6", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    want = 0.638902472825249
    assert payload["lambda"][1] == 0.05
    assert abs(payload["values"][1] - want) <= 4 * np.spacing(want)


def test_window_artifact(tmp_path):
    out = tmp_path / "window.json"
    rc = cli.main(
        [
            "noise",
            "--n",
            "3",
            "--labels",
            "k=5",
            "--window",
            "k=4:open",
            "--grid-points",
            "21",
            "--restarts",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"low", "high", "tol"}
    assert payload["low"] == pytest.approx(0.5, abs=0.01)
    assert payload["high"] == pytest.approx(0.871, abs=0.01)


def test_eacc_command(capsys):
    rc = cli.main(["eacc", "--n", "3", "--labels", "k=2", "--restarts", "4"])
    assert rc == 0
    assert "0.853553" in capsys.readouterr().out


def test_seesaw_artifacts_carry_every_report_field(tmp_path):
    """Both optimizer artifacts hold every `SeesawReport` field as the library
    reports it, the strategy as a dict; the entanglement-assisted optimum has
    no local certificate, so those two fields are null in its artifact."""
    fset = representative_set(2)
    fields = [f.name for f in dataclasses.fields(SeesawReport) if f.name != "best_strategy"]
    solvers = (("quantum", seesaw, "upper_bound"), ("eacc", eacc_optimum, "local_dim"))
    for command, solve, extra in solvers:
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--labels", "k=2", "--restarts", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = solve(fset, restarts=2)
        assert set(payload) == {*fields, "n", "labels", "strategy", extra}
        assert {name: payload[name] for name in fields} == {
            name: getattr(report, name) for name in fields
        }
        assert payload["strategy"] == json.loads(json.dumps(report.best_strategy.to_dict()))
    assert payload["tangent_grad"] is None and payload["top_hessian_eig"] is None  # eacc's


def test_tables_json_artifact_holds_each_report_and_row_field(tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["tables", "--which", "II", "--out", str(out)]) == 0
    (table,) = json.loads(out.read_text())["tables"]
    assert set(table) == {"table_id", "tolerance", "passed", "max_delta", "rows"}
    assert (table["table_id"], table["passed"], table["max_delta"]) == ("II", True, 0.0)
    row_fields = {f.name for f in dataclasses.fields(TableRow)}
    assert all(set(row) == row_fields | {"passed"} and row["passed"] for row in table["rows"])


def test_tables_pass_exit_zero(capsys, tmp_path):
    out = tmp_path / "tables.csv"
    rc = cli.main(["tables", "--which", "I,II", "--format", "csv", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "table I: PASS" in stdout
    assert "table II: PASS" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "table,row,computed,reference,delta,passed"


def test_tables_tolerance_failure_exit_two(monkeypatch, capsys):
    fake = TableReport("II", 0.0, (TableRow("row", 1.0, 2.0, -1.0),))
    monkeypatch.setattr(cli.tables_mod, "reproduce_tables", lambda which: [fake])
    rc = cli.main(["tables", "--which", "II"])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_tables_unknown_id_is_module_error(capsys):
    rc = cli.main(["tables", "--which", "VII"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("which", [",", " ", " , "])
def test_tables_empty_selection_is_module_error(capsys, which):
    rc = cli.main(["tables", "--which", which])
    assert rc == 1
    captured = capsys.readouterr()
    assert "no table selected" in captured.err
    assert captured.out == ""


def test_csv_not_available_for_classical(capsys):
    rc = cli.main(["classical", "--n", "3", "--labels", "k=2", "--format", "csv", "--out", "/tmp/x.csv"])
    assert rc == 1
    assert capsys.readouterr().out == ""


def test_text_artifact(tmp_path):
    out = tmp_path / "report.txt"
    rc = cli.main(["mubs", "--n", "3", "--labels", "all", "--format", "text", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("MUBS: true")


def test_csv_refused_before_the_seesaw_runs(monkeypatch, capsys, tmp_path):
    def no_seesaw(*args, **kwargs):
        raise AssertionError("seesaw ran before the format was checked")

    monkeypatch.setattr(cli, "seesaw", no_seesaw)
    out = tmp_path / "q.csv"
    assert cli.main(["quantum", "--labels", "k=3", "--format", "csv", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidInputError"
    assert not out.exists()


def test_out_in_missing_directory_prints_nothing(capsys, tmp_path):
    out = tmp_path / "missing" / "c.json"
    assert cli.main(["classical", "--labels", "k=2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "FileNotFoundError"


def test_noise_depolarizing_threshold(capsys, tmp_path):
    out = tmp_path / "threshold.json"
    assert cli.main(["noise", "--labels", "k=2", "--channel", "depolarizing", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["channel"] == "depolarizing"
    assert payload["lambda_crit"] == pytest.approx(0.29289, abs=1e-4)
    assert capsys.readouterr().out.startswith("critical depolarizing noise: lambda = 0.2928")


def test_cli_forwards_only_the_options_given(monkeypatch, tmp_path):
    seen = []

    def spy(fset, **kwargs):
        seen.append(kwargs)
        return seesaw(fset, **kwargs)

    monkeypatch.setattr(cli, "seesaw", spy)
    out = tmp_path / "q.json"
    assert cli.main(["quantum", "--labels", "k=3", "--max-iters", "1", "--out", str(out)]) == 0
    assert seen == [{"max_iters": 1}]
    payload = json.loads(out.read_text())
    assert payload["iterations"] == 1
    assert payload["seed"] == 0

    out = tmp_path / "e.json"
    assert cli.main(["eacc", "--labels", "k=2", "--restarts", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["local_dim"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--n", "3"],
        ["tables", "--labels", "bogus"],
        ["classical", "--seed", "1"],
        ["mubs", "--seed", "1"],
        ["quantum", "--tol", "1e-9"],
        ["eacc", "--tol", "1e-9"],
        ["tables", "--seed", "1"],
        ["noise", "--labels", "k=5", "--refine-tol", "1e-3"],
        ["noise", "--labels", "k=5", "--window", "k=4:open", "--refine-tol", "1e-3"],
        ["noise", "--labels", "k=5", "--channel", "dephasing", "--refine-tol", "1e-3"],
    ],
)
def test_ignored_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_a_failed_artifact_write_leaves_no_temp_file(monkeypatch, tmp_path, capsys):
    def no_replace(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", no_replace)
    assert cli.main(["mubs", "--labels", "001,010", "--out", str(tmp_path / "m.json")]) == 1
    assert "replace refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mubs_check_is_labels():
    parser = cli.build_parser()
    assert parser.parse_args(["mubs", "--check", "100,010"]).labels == "100,010"
    assert parser.parse_args(["mubs"]).labels == "all"


def _full_subparser(command: str) -> argparse.ArgumentParser:
    """The subparser of `command` inside the full `grac` parser."""
    actions = cli.build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices[command]


def _benchmark_argvs() -> list[list[str]]:
    """The argv of every op of the benchmark workloads, read from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for name in workloads.WORKLOADS for op in workloads.build(name)]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_is_the_full_parsers_subparser_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _full_subparser(command).format_help()


def test_one_command_parser_reads_every_benchmark_op_as_the_full_parser():
    argvs = _benchmark_argvs()
    assert argvs and all(argv[0] in cli._COMMANDS for argv in argvs)
    full = cli.build_parser()
    for argv in argvs:
        argv = argv + ["--out", "op.json"]
        assert vars(cli.build_parser(argv[0]).parse_args(argv[1:])) == vars(full.parse_args(argv))


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "grac: error: the following arguments are required: command"),
        (["bogus"], "grac: error: argument command: invalid choice: 'bogus'"),
        (["eacc", "--bogus"], "grac eacc: error: unrecognized arguments: --bogus"),
        (["eacc", "--local-dim", "7"], "grac eacc: error: argument --local-dim: invalid choice: 7"),
    ],
)
def test_usage_errors_exit_two(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    """The console script calls main() with no argument."""
    monkeypatch.setattr(sys, "argv", ["grac", "mubs", "--check", "100,010,110"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "MUBS: true\n"


def test_a_command_call_builds_only_its_own_arguments(monkeypatch, capsys):
    built = []

    def spy(name, add_arguments):
        def add(parser):
            built.append(name)
            add_arguments(parser)

        return add

    table = {name: (text, spy(name, add), func) for name, (text, add, func) in cli._COMMANDS.items()}
    monkeypatch.setattr(cli, "_COMMANDS", table)
    assert cli.main(["mubs", "--check", "100,010"]) == 0
    assert built == ["mubs"]
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert built == list(table)


def test_mubs_on_a_random_width_5_set(capsys, tmp_path):
    rng = random.Random("width-5 mubs")
    labels = ",".join(format(r, "05b") for r in sorted(rng.sample(range(1, 32), 9)))
    out = tmp_path / "mubs.json"
    assert cli.main(["mubs", "--n", "5", "--labels", labels, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "MUBS: true\n"
    assert json.loads(out.read_text())["is_mubs"] is True
