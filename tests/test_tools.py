"""The before/after gate `tools/ops_diff.py`: its op list, value diffs and replay rule."""

import importlib.util
import json
import sys
from pathlib import Path

from grac import _seesaw

ROOT = Path(__file__).resolve().parents[1]


def _load_ops_diff():
    # The tool puts perfbench/ first on sys.path to read the workloads; undo
    # that here so no later import in the test session resolves there.
    path = sys.path[:]
    spec = importlib.util.spec_from_file_location("ops_diff", ROOT / "tools" / "ops_diff.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


ops_diff = _load_ops_diff()


def _result(payload) -> dict:
    """One op's worker result whose artifact is `payload`, a JSON object or text."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return {"exit": 0, "stdout": "", "stderr": "", "artifact": text.encode().hex()}


def test_ops_hold_every_benchmark_sweep_and_the_default_grid_sweeps():
    todo = ops_diff.ops()
    sweeps = [op["argv"] for op in ops_diff.build("pm_sweep") if op["kind"] == "sweep"]
    assert len(sweeps) == 21
    assert all(("pm_sweep", argv) in todo for argv in sweeps)
    default_grid = [
        ["noise", "--labels", spec, "--channel", "dephasing", "--axis", axis]
        for axis in ("1,0,0", "0,0,1", "0.48,-0.6,0.64")
        for spec in ops_diff.K3_SPECS
    ]
    assert len(default_grid) == 21
    assert all(todo.count(("extra", argv)) == 1 for argv in default_grid)
    # the one op that checks the echo of the default axis stays
    assert ("extra", ["noise", "--labels", "k=5", "--channel", "dephasing"]) in todo
    # two sets that tie up to rounding on the oblique axis: no window
    tied = ["noise", "--labels", "k=4:xor-closed", "--window", "k=3",
            "--axis", "0.48,-0.6,0.64"]
    assert ("extra", tied) in todo
    # a window refined toward higher lambda as well as one refined toward lower
    assert ("extra", ["noise", "--labels", "k=4:open", "--window", "k=5"]) in todo
    assert ("extra", ["noise", "--labels", "k=5", "--window", "k=4:open"]) in todo


def test_value_moves_are_exact_change_minus_parent_diffs():
    old = _result({"value": 0.8, "values": [0.5, 0.75], "ratio": [1.0, 2.0]})
    new = _result({"value": 0.79, "values": [0.5, 0.7500000000000001], "ratio": [9.0, 9.0]})
    diffs = ops_diff.value_moves(old, new)
    assert diffs == [0.79 - 0.8, 0.0, 0.7500000000000001 - 0.75]
    assert diffs[0] < 0 and diffs[2] == 2.0**-53  # a fall, and one ulp at 0.75
    assert ops_diff.value_moves(old, old) == [0.0, 0.0, 0.0]
    assert ops_diff.value_moves(_result("lambda,value\n0,0.8\n"), new) is None
    assert ops_diff.value_moves({**old, "artifact": None}, new) is None


def test_replay_failure_flags_wins_and_values_off_the_report():
    classical = {"strategies": [{}, {}], "value": {"wins": 10, "total": 12}}
    assert ops_diff.replay_failure(classical, [10, 10]) is None
    assert "wins [10, 9] != reported 10" in ops_diff.replay_failure(classical, [10, 9])
    pm = {"strategy": {}, "value": 0.8}
    assert ops_diff.replay_failure(pm, 0.8 + 0.9e-9) is None
    assert ops_diff.replay_failure(pm, 0.8 - 0.9e-9) is None
    assert "!= reported 0.8" in ops_diff.replay_failure(pm, 0.8 + 1.1e-9)
    assert ops_diff.replay_failure(pm, "InvalidInputError: bad key") == "InvalidInputError: bad key"


def test_differing_keys_name_what_moved_in_an_artifact():
    old = _result({"value": 0.75, "iterations": 47, "strategy": {"a": 1}, "seed": 0, "gone": 1})
    new = _result({"value": 0.75, "iterations": 44, "strategy": {"a": 2}, "seed": 0, "new": 1})
    assert ops_diff.differing_keys(old, new) == ["-gone", "~iterations", "+new", "~strategy"]
    assert ops_diff.differing_keys(old, old) == []
    # a key added with a null value is an addition, and dropping it a removal
    grown = _result({**json.loads(bytes.fromhex(old["artifact"])), "top": None})
    assert ops_diff.differing_keys(old, grown) == ["+top"]
    assert ops_diff.differing_keys(grown, old) == ["-top"]
    # a list artifact, a text artifact and a missing one have no keys to name
    assert ops_diff.differing_keys(_result([1, 2]), _result([1, 3])) is None
    assert ops_diff.differing_keys(_result("lambda,value\n0,0.8\n"), new) is None
    assert ops_diff.differing_keys({**old, "artifact": None}, new) is None


def test_ops_hold_a_snapped_row_that_the_polish_moves():
    op = ["quantum", "--n", "3", "--labels", "010,011,100,101,111", "--restarts", "16",
          "--seed", "48259"]
    assert ops_diff.ops().count(("extra", op)) == 1


def test_moved_summary_gives_the_largest_fall_and_rise():
    assert ops_diff.moved_summary([]) == "0 reported values moved, 0 of them fell"
    assert ops_diff.moved_summary([-2e-16, 3e-13, -1e-16, 1e-15]) == (
        "4 reported values moved, 2 of them fell, the largest fall 2.00e-16, "
        "the largest rise 3.00e-13"
    )
    assert ops_diff.moved_summary([1e-15]) == (
        "1 reported values moved, 0 of them fell, the largest rise 1.00e-15"
    )


def test_ops_hold_the_help_texts_and_usage_errors():
    todo = ops_diff.ops()
    commands = ("mubs", "classical", "quantum", "noise", "eacc", "tables")
    for op in (["--help"], *([c, "--help"] for c in commands), ["bogus"],
               ["eacc", "--local-dim", "7"]):
        assert todo.count(("extra", op)) == 1


def test_worker_records_a_system_exits_code_and_stderr():
    """argparse leaves by SystemExit: 0 after a help text, 2 after a usage error."""
    help_text, usage_error, done = ops_diff.run_tree(
        str(ROOT / "src"), ops_diff.WORKER, [["--help"], ["bogus"], ["mubs"]]
    )
    assert help_text["exit"] == 0 and help_text["stdout"].startswith("usage: grac ")
    assert help_text["stderr"] == "" and help_text["artifact"] is None
    assert usage_error["exit"] == 2 and usage_error["stdout"] == ""
    assert "grac: error: argument command: invalid choice: 'bogus'" in usage_error["stderr"]
    assert done["exit"] == 0 and done["stdout"] == "MUBS: true\n" and done["artifact"]


def test_ops_hold_the_rank_deficient_classical_ops_that_no_workload_runs():
    """Width-4 sets of rank 2 and 3 at a limit past every optimum, where each
    translation orbit of sign vectors holds repeats."""
    todo = ops_diff.ops()
    for op in (
        ["classical", "--n", "4", "--labels", "0001,0010,0011", "--max-strategies", "1000"],
        ["classical", "--n", "4", "--labels", "0011,0101,0110,1111", "--max-strategies", "1000"],
    ):
        assert todo.count(("extra", op)) == 1


def test_ops_hold_the_eacc_ops_that_no_workload_runs():
    """The full width-4 set, settled by the embedded one-qubit optimum, the
    4->1 random access code, short of the bound, which falls back to the
    see-saw, and at local dimension 4 a k = 8 class that the solve in R^5
    settles, the k = 7 class it leaves short, and a k = 7 set where the
    see-saw fallback wins and reports its replayed value."""
    todo = ops_diff.ops()
    for op in (
        ["eacc", "--n", "4", "--labels", "all", "--local-dim", "3"],
        ["eacc", "--n", "4", "--labels", "0001,0010,0100,1000", "--local-dim", "3",
         "--restarts", "8"],
        ["eacc", "--n", "4", "--labels", "0001,0010,0011,0100,0101,0110,0111,1000",
         "--local-dim", "4"],
        ["eacc", "--n", "4", "--labels", "0001,0010,0011,0100,0101,1000,1010",
         "--local-dim", "4", "--restarts", "8"],
        ["eacc", "--n", "4", "--labels", "0001,0010,0100,0110,0111,1010,1101",
         "--local-dim", "4", "--restarts", "2", "--seed", "690"],
    ):
        assert todo.count(("extra", op)) == 1


def test_ops_hold_a_cap_one_past_the_newton_hand_off():
    """The width-4 op whose `--max-iters` cap binds after the Newton finish
    caps it one iteration past the hand-off."""
    capped = [op for group, op in ops_diff.ops()
              if group == "extra" and op[:5] == ["quantum", "--n", "4", "--labels",
                                                 "0010,0101,0110,1000,1010,1110,1111"]]
    assert len(capped) == 1
    assert capped[0][5:] == ["--max-iters", str(_seesaw._NEWTON_AFTER + 1)]
