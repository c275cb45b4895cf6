"""CLI surface: label parsing, artifacts, exit codes, reproducibility."""

import json
import os

import pytest

from grac import cli
from grac.mubs import FunctionSet
from grac.tables import TableReport, TableRow


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
    monkeypatch.setattr(cli.tables_mod, "reproduce_tables", lambda which, seed=0: [fake])
    rc = cli.main(["tables", "--which", "II"])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_tables_unknown_id_is_module_error(capsys):
    rc = cli.main(["tables", "--which", "VII"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_csv_not_available_for_classical(capsys):
    rc = cli.main(["classical", "--n", "3", "--labels", "k=2", "--format", "csv", "--out", "/tmp/x.csv"])
    assert rc == 1


def test_text_artifact(tmp_path):
    out = tmp_path / "report.txt"
    rc = cli.main(["mubs", "--n", "3", "--labels", "all", "--format", "text", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("MUBS: true")
