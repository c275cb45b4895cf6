"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

A tiny run of each workload must emit every metric BENCHMARK.json declares,
a corrupted artifact or a failing op must count as a failed op, and the
benchmark must refuse to run without the grac sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run  # first: it puts the grac sources on sys.path
import checks  # noqa: E402
import workloads  # noqa: E402

TINY_OPS = 12


def _bench(*args, cwd=run.ROOT, script=os.path.join(run.HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--ops", str(TINY_OPS),
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= TINY_OPS
    declared = {m["name"]: m["unit"] for m in run.declared(bool(trace))}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


@pytest.fixture
def out_dir():
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="smoke-", dir=run.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_corrupted_artifact_and_failing_op_count_as_failures(out_dir):
    ops = workloads.build("census_w4")[:4]
    # Same width-4 labels at the wrong --n: the CLI exits 1.
    bad = {"kind": "classical", "argv": ops[0]["argv"][:2] + ["3"] + ops[0]["argv"][3:], "expect": {}}
    record = run.run_ops(ops + [bad], 0.0, False, out_dir, "")
    (done,) = record["passes"]
    assert [op["rc"] for op in done["ops"]] == [0, 0, 0, 0, 1]
    assert run.check_passes(ops, [{"ops": done["ops"][:4]}]) == []

    path = done["ops"][0]["path"]
    with open(path) as handle:
        payload = json.load(handle)
    payload["value"]["wins"] -= 1
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with open(done["ops"][1]["path"], "w") as handle:
        handle.write("{not json")

    failures = run.check_passes(ops + [bad], [done])
    assert len(failures) == 3
    assert "exact optimum" in failures[0]
    assert "malformed artifact" in failures[1]
    assert "exit 1" in failures[2]


def test_sign_oracle_matches_exhaustive_search():
    from grac import FunctionSet, classical_optimum

    for ints in [(1, 2), (1, 2, 3, 4), (1, 2, 4, 7), tuple(range(1, 8))]:
        fset = FunctionSet.from_ints(3, ints)
        assert checks.classical_wins(3, ints) == classical_optimum(fset)[0].wins
    assert checks.classical_wins(4, tuple(range(1, 16))) == classical_optimum(
        FunctionSet.from_ints(4, range(1, 16))
    )[0].wins


def test_refuses_to_run_without_sources(out_dir):
    bare = os.path.join(out_dir, "bare")
    shutil.copytree(
        run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = _bench(
        "--workload", "census_w4", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=bare, script=os.path.join(bare, "perfbench", "run.py"),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
