"""Check that two grac source trees give the same CLI results, op by op.

    python3 tools/ops_diff.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
tree runs, in its own Python process, the same CLI ops through
`grac.cli.main(argv + ["--out", path])`:

- every op of the three benchmark workloads (census_w4, pm_sweep,
  eacc_dims), read with `perfbench/workloads.py`'s `build` from the checkout
  this script sits in;
- the ops of `EXTRA_OPS` below, each on a branch or an output that no
  workload reaches; the comment beside each entry says which.

It prints one line per op saying whether the exit code (the code of a
`SystemExit`, such as argparse's 0 after a help text and 2 after a usage
error, counts as the exit code), stdout, stderr and artifact bytes match,
and under an op whose two JSON artifacts differ, the top-level keys that
differ, each marked added (`+`), removed (`-`) or changed (`~`) (for
example `~iterations,~strategy,~tangent_grad`: no value moved), then a
count.  It prints no wall times: one run per tree cannot show a change of
less than about 25%; `tools/bench_record.py` gives paired timings.  For
each op whose two artifacts are JSON, it compares every reported optimum
(each number under a `value`, `values`, `lambda_crit` or `computed` key,
which the optimizers only ever raise) and prints a line per op where one
moved, with the smallest and largest difference (CHANGE minus PARENT), then
the number of values that moved, how many fell, the largest fall and the
largest rise.
Then CHANGE_SRC reads every JSON strategy
artifact that PARENT_SRC wrote with its own `from_dict` and replays it: each
classical strategy must replay to the reported wins exactly, and each
prepare-and-measure or entanglement-assisted strategy to the reported value
within 1e-9.  It prints a line per artifact that fails, then a count.  The
exit code is 0 when every op matches and every artifact replays, 1
otherwise, and 2 for a wrong argument count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import K3_SPECS, WORKLOADS, build  # noqa: E402

DEFAULT_GRID_AXES = ("1,0,0", "0,0,1", "0.48,-0.6,0.64")

EXTRA_OPS = (
    # `tables` in each artifact format
    ["tables", "--format", "json"],
    ["tables", "--format", "text"],
    ["tables", "--format", "csv"],
    # crossing windows on the default grid, refined at their lower and at
    # their higher end in lambda
    ["noise", "--labels", "k=5", "--window", "k=4:open"],
    ["noise", "--labels", "k=4:open", "--window", "k=5"],
    # two sets that tie up to rounding on this axis: no window is found
    ["noise", "--labels", "k=4:xor-closed", "--window", "k=3", "--axis", "0.48,-0.6,0.64"],
    # the dephasing sweep on the default axis and grid; its result line
    # echoes the default axis
    ["noise", "--labels", "k=5", "--channel", "dephasing"],
    # the depolarizing threshold at the default restarts
    ["noise", "--labels", "k=4:open", "--channel", "depolarizing"],
    # the `classical` ops that decode the most kept strategies: the full
    # sets of widths 3 and 4 and the width-4 set of weight-one labels
    ["classical", "--n", "3", "--labels", "all", "--max-strategies", "1000"],
    ["classical", "--n", "4", "--labels", "all", "--max-strategies", "500"],
    ["classical", "--n", "4", "--labels", "0001,0010,0100,1000", "--max-strategies", "300"],
    # rank-deficient width-4 sets at a limit past every optimum: with rank 2
    # each translation orbit repeats every sign vector 4 times, with rank 3 twice
    ["classical", "--n", "4", "--labels", "0001,0010,0011", "--max-strategies", "1000"],
    ["classical", "--n", "4", "--labels", "0011,0101,0110,1111", "--max-strategies", "1000"],
    # a width-5 set, above the exact search's width: no classical start
    ["quantum", "--n", "5", "--labels", "00001,00010,00100,01000,10000,11111"],
    # a width-4 set whose `--max-iters` cap, one past the Newton hand-off
    # (`grac._seesaw._NEWTON_AFTER` trips), binds after the Newton finish
    ["quantum", "--n", "4", "--labels", "0010,0101,0110,1000,1010,1110,1111", "--max-iters", "26"],
    # a width-3 set whose snapped row the Newton polish still moves
    ["quantum", "--n", "3", "--labels", "010,011,100,101,111", "--restarts", "16", "--seed", "48259"],
    # the full width-4 set (k = 15) at local dimension 3, which the
    # embedded one-qubit optimum of `eacc_optimum` settles
    ["eacc", "--n", "4", "--labels", "all", "--local-dim", "3"],
    # the 4->1 random access code at local dimension 3, short of the bound:
    # `eacc_optimum` falls back to the see-saw
    ["eacc", "--n", "4", "--labels", "0001,0010,0100,1000", "--local-dim", "3", "--restarts", "8"],
    # a k = 8 class short of the bound with one qubit, at local dimension 4:
    # the solve in R^5 meets the bound at once
    ["eacc", "--n", "4", "--labels", "0001,0010,0011,0100,0101,0110,0111,1000", "--local-dim", "4"],
    # the k = 7 class short of the bound with one qubit, at local dimension 4:
    # the solve in R^5 ends short, above the see-saw it falls back to
    ["eacc", "--n", "4", "--labels", "0001,0010,0011,0100,0101,1000,1010", "--local-dim", "4",
     "--restarts", "8"],
    # a k = 7 width-4 set at local dimension 4 where the see-saw fallback
    # wins, and its own value is one ulp above its strategy's replay: the
    # reported value is the replay
    ["eacc", "--n", "4", "--labels", "0001,0010,0100,0110,0111,1010,1101", "--local-dim", "4",
     "--restarts", "2", "--seed", "690"],
    # the 7 width-3 representative sets swept on 3 axes (x, z and an
    # oblique one) on the default grid, seed and restarts: 21 sweeps
    *(["noise", "--labels", spec, "--channel", "dephasing", "--axis", axis]
      for axis in DEFAULT_GRID_AXES for spec in K3_SPECS),
    # help texts and usage errors, which exit by SystemExit; none of their
    # messages echoes the --out path the worker appends
    ["--help"],
    *([command, "--help"]
      for command in ("mubs", "classical", "quantum", "noise", "eacc", "tables")),
    ["bogus"],
    ["eacc", "--local-dim", "7"],
)

# Runs in a fresh interpreter with one source tree first on sys.path; reads
# the argv lists as JSON on stdin and writes, per op, its exit code (a
# SystemExit's code included), stdout, stderr and artifact bytes as hex (None
# when no artifact was written) as JSON to stdout.
WORKER = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
from grac.cli import main
out = []
with tempfile.TemporaryDirectory() as tmp:
    for i, argv in enumerate(json.load(sys.stdin)):
        path = os.path.join(tmp, f"op{i}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + ["--out", path])
            except SystemExit as exc:
                code = exc.code
        artifact = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                artifact = fh.read().hex()
            os.unlink(path)
        out.append({"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                    "artifact": artifact})
json.dump(out, sys.stdout)
"""


# Runs in a fresh interpreter like WORKER; reads the parsed JSON strategy
# artifacts on stdin and writes, per artifact, the replayed classical wins
# of each kept strategy or the replayed value, or the reader's error text.
REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from grac.classical import ClassicalStrategy, evaluate_classical
from grac.eacc import EACCStrategy, evaluate_eacc
from grac.errors import GracError
from grac.mubs import FunctionSet
from grac.quantum import PMStrategy, evaluate_pm
out = []
for payload in json.load(sys.stdin):
    fset = FunctionSet.from_bitstrings(",".join(payload["labels"]))
    try:
        if "strategies" in payload:
            strategies = [ClassicalStrategy.from_dict(d) for d in payload["strategies"]]
            out.append([evaluate_classical(s, fset).wins for s in strategies])
        elif "local_dim" in payload:
            out.append(evaluate_eacc(EACCStrategy.from_dict(payload["strategy"]), fset))
        else:
            out.append(evaluate_pm(PMStrategy.from_dict(payload["strategy"]), fset))
    except GracError as exc:
        out.append(f"{type(exc).__name__}: {exc}")
json.dump(out, sys.stdout)
"""
REPLAY_TOL = 1e-9
VALUE_KEYS = ("value", "values", "lambda_crit", "computed")


def ops() -> list[tuple[str, list[str]]]:
    """(group, argv) of every op, in run order."""
    todo = [(w, op["argv"]) for w in WORKLOADS for op in build(w)]
    return todo + [("extra", list(argv)) for argv in EXTRA_OPS]


def run_tree(src: str, script: str, items: list) -> list:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.abspath(src)],
        input=json.dumps(items), capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout)


def strategy_artifacts(todo: list, results: list[dict]) -> list[tuple[str, dict]]:
    """(op text, payload) of every artifact that is a JSON object holding a strategy."""
    found = []
    for (_, op), res in zip(todo, results):
        if res["artifact"] is None:
            continue
        try:
            payload = json.loads(bytes.fromhex(res["artifact"]))
        except ValueError:  # a text or csv artifact
            continue
        if isinstance(payload, dict) and ("strategy" in payload or "strategies" in payload):
            found.append((" ".join(op), payload))
    return found


def reported_values(payload, key: str | None = None) -> list[float]:
    """Every number under a VALUE_KEYS key of a parsed JSON artifact, in document order."""
    if isinstance(payload, dict):
        return [x for k, v in payload.items() for x in reported_values(v, k)]
    if isinstance(payload, list):
        return [x for v in payload for x in reported_values(v, key)]
    numeric = isinstance(payload, (int, float)) and not isinstance(payload, bool)
    return [float(payload)] if numeric and key in VALUE_KEYS else []


def json_pair(old: dict, new: dict) -> tuple | None:
    """One op's two parsed JSON artifacts, or None without two JSON artifacts."""
    try:
        return tuple(json.loads(bytes.fromhex(res["artifact"])) for res in (old, new))
    except (TypeError, ValueError):  # no artifact, or a text or csv one
        return None


def differing_keys(old: dict, new: dict) -> list[str] | None:
    """The top-level keys, sorted, in which one op's two JSON object artifacts differ,
    each marked added (+), removed (-) or changed (~), or None unless both
    artifacts are JSON objects."""
    pair = json_pair(old, new)
    if pair is None or not all(isinstance(payload, dict) for payload in pair):
        return None
    before, after = pair
    missing = object()
    return [("+" if k not in before else "-" if k not in after else "~") + k
            for k in sorted(before.keys() | after.keys())
            if before.get(k, missing) != after.get(k, missing)]


def value_moves(old: dict, new: dict) -> list[float] | None:
    """CHANGE minus PARENT for each reported optimum of one op, or None without two JSON artifacts."""
    pair = json_pair(old, new)
    if pair is None:
        return None
    before, after = (reported_values(payload) for payload in pair)
    if len(before) != len(after):
        return None
    return [b - a for a, b in zip(before, after)]


def moved_summary(moves: list[float]) -> str:
    """The count of moved reported values, how many fell, the largest fall and rise."""
    falls = [d for d in moves if d < 0]
    rises = [d for d in moves if d > 0]
    return (f"{len(moves)} reported values moved, {len(falls)} of them fell"
            + (f", the largest fall {-min(falls):.2e}" if falls else "")
            + (f", the largest rise {max(rises):.2e}" if rises else ""))


def replay_failure(payload: dict, got) -> str | None:
    """Why a replay does not reproduce the reported value, or None."""
    if isinstance(got, str):
        return got
    if "strategies" in payload:
        wins = payload["value"]["wins"]
        return None if all(w == wins for w in got) else f"wins {got} != reported {wins}"
    value = payload["value"]
    return None if abs(got - value) <= REPLAY_TOL else f"value {got!r} != reported {value!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    todo = ops()
    parent, change = (run_tree(src, WORKER, [op for _, op in todo]) for src in argv)
    same = 0
    print(f"{'verdict':<24} {'group':<10} op")
    for (group, op), old, new in zip(todo, parent, change):
        flags = {part: old[part] == new[part] for part in ("exit", "stdout", "stderr", "artifact")}
        ok = all(flags.values())
        same += ok
        verdict = "same" if ok else "DIFF " + ",".join(p for p, f in flags.items() if not f)
        print(f"{verdict:<24} {group:<10} {' '.join(op)}")
        keys = None if flags["artifact"] else differing_keys(old, new)
        if keys:
            print(f"{'':<24} keys {','.join(keys)}")
    print(f"{same} of {len(todo)} ops match in exit code, stdout, stderr and artifact bytes")
    moves = []
    for (group, op), old, new in zip(todo, parent, change):
        diffs = value_moves(old, new)
        if diffs and any(diffs):
            moves += [d for d in diffs if d]
            print(f"VALUES MOVED  min {min(diffs):+.2e} max {max(diffs):+.2e}  {' '.join(op)}")
    print(moved_summary(moves))
    artifacts = strategy_artifacts(todo, parent)
    replays = run_tree(argv[1], REPLAY, [payload for _, payload in artifacts])
    read = 0
    for (op, payload), got in zip(artifacts, replays):
        failure = replay_failure(payload, got)
        read += failure is None
        if failure:
            print(f"REPLAY FAILS  {op}: {failure}")
    print(f"{read} of {len(artifacts)} parent strategy artifacts replay with the change's readers")
    return 0 if same == len(todo) and read == len(artifacts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
