"""Check that two grac source trees give the same CLI results, op by op.

    python3 tools/ops_diff.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
tree runs, in its own Python process, the same CLI ops through
`grac.cli.main(argv + ["--out", path])`:

- every op of the three benchmark workloads (census_w4, pm_sweep,
  eacc_dims), read with `perfbench/workloads.py`'s `build` from the checkout
  this script sits in;
- `tables` with each artifact format (json, text, csv);
- the crossing window `noise --labels k=5 --window k=4:open` on its
  default grid;
- the dephasing sweep `noise --labels k=5 --channel dephasing` on the
  default axis and grid, whose result line echoes the default axis;
- the depolarizing threshold `noise --labels k=4:open --channel
  depolarizing` at the default restarts;
- the three `classical` ops that call `best_decoding` the most: the full
  sets of widths 3 and 4 and the width-4 set of weight-one labels, each
  with a large `--max-strategies`.

It prints one line per op saying whether the exit code, stdout and artifact
bytes match, then a count.  The exit code is 0 when every op matches and 1
otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, build  # noqa: E402

EXTRA_OPS = (
    ["tables", "--format", "json"],
    ["tables", "--format", "text"],
    ["tables", "--format", "csv"],
    ["noise", "--labels", "k=5", "--window", "k=4:open"],
    ["noise", "--labels", "k=5", "--channel", "dephasing"],
    ["noise", "--labels", "k=4:open", "--channel", "depolarizing"],
    ["classical", "--n", "3", "--labels", "all", "--max-strategies", "1000"],
    ["classical", "--n", "4", "--labels", "all", "--max-strategies", "500"],
    ["classical", "--n", "4", "--labels", "0001,0010,0100,1000", "--max-strategies", "300"],
)

# Runs in a fresh interpreter with one source tree first on sys.path; reads
# the argv lists as JSON on stdin and writes, per op, its exit code, stdout
# and artifact text (None when no artifact was written) as JSON to stdout.
WORKER = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
from grac.cli import main
out = []
with tempfile.TemporaryDirectory() as tmp:
    for i, argv in enumerate(json.load(sys.stdin)):
        path = os.path.join(tmp, f"op{i}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + ["--out", path])
        artifact = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                artifact = fh.read().hex()
            os.unlink(path)
        out.append({"exit": code, "stdout": buf.getvalue(), "artifact": artifact})
json.dump(out, sys.stdout)
"""


def ops() -> list[tuple[str, list[str]]]:
    """(group, argv) of every op, in run order."""
    todo = [(w, op["argv"]) for w in WORKLOADS for op in build(w)]
    return todo + [("extra", list(argv)) for argv in EXTRA_OPS]


def run_tree(src: str, argvs: list[list[str]]) -> list[dict]:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, os.path.abspath(src)],
        input=json.dumps(argvs), capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    todo = ops()
    parent, change = (run_tree(src, [op for _, op in todo]) for src in argv)
    same = 0
    for (group, op), old, new in zip(todo, parent, change):
        flags = {part: old[part] == new[part] for part in ("exit", "stdout", "artifact")}
        ok = all(flags.values())
        same += ok
        verdict = "same" if ok else "DIFF " + ",".join(p for p, f in flags.items() if not f)
        print(f"{verdict:<24} {group:<10} {' '.join(op)}")
    print(f"{same} of {len(todo)} ops match in exit code, stdout and artifact bytes")
    return 0 if same == len(todo) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
