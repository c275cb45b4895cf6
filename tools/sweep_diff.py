"""Compare the dephasing-sweep values of two grac source trees, point by point.

    python3 tools/sweep_diff.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
tree runs, in its own Python process, the same sweeps through the library's
`dephasing_sweep`:

- the 21 sweeps of the pm_sweep benchmark workload (7 width-3 sets, random
  axes, 11 points, the workload's seeds), read from perfbench/workloads.py
  of the checkout this script sits in;
- the 7 width-3 sets on 3 axes (x, z and an oblique one) on the default
  101-point grid, seed 0.

It prints one line per sweep with the smallest and largest value difference
(CHANGE minus PARENT) over its points and each side's time, then the
minimum and maximum over each group, then the number of points where
CHANGE < PARENT and the largest such fall.  The exit code is 1 when that
number is nonzero, and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import K3_SPECS, pm_sweep  # noqa: E402

DEFAULT_GRID_AXES = ("1,0,0", "0,0,1", "0.48,-0.6,0.64")

# Runs in a fresh interpreter with one source tree first on sys.path; reads
# the jobs as JSON on stdin and writes one list of values per job to stdout.
WORKER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from grac.channels import dephasing_grid, dephasing_sweep
from grac.cli import parse_label_spec
out = []
for job in json.load(sys.stdin):
    grid = None if job["points"] is None else dephasing_grid(job["points"])
    fset = parse_label_spec(3, job["spec"])
    t0 = time.perf_counter()
    sweep = dephasing_sweep(fset, axis=job["axis"], grid=grid, seed=job["seed"])
    out.append({"values": list(sweep.values), "s": time.perf_counter() - t0})
json.dump(out, sys.stdout)
"""


def _flag(argv: list[str], name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    raise KeyError(name)


def jobs() -> list[dict]:
    """(group, spec, axis, grid points or None for the default grid, seed) of every sweep."""
    out = []
    for op in pm_sweep():
        if op["kind"] != "sweep":
            continue
        argv = op["argv"]
        out.append({
            "group": "pm_sweep",
            "spec": _flag(argv, "--labels"),
            "axis": [float(c) for c in _flag(argv, "--axis").split(",")],
            "points": int(_flag(argv, "--grid-points")),
            "seed": int(_flag(argv, "--seed")),
        })
    for axis in DEFAULT_GRID_AXES:
        for spec in K3_SPECS:
            out.append({
                "group": "default_grid",
                "spec": spec,
                "axis": [float(c) for c in axis.split(",")],
                "points": None,
                "seed": 0,
            })
    return out


def run_tree(src: str, todo: list[dict]) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, os.path.abspath(src)],
        input=json.dumps(todo), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    todo = jobs()
    parent, change = (run_tree(src, todo) for src in argv)
    groups: dict[str, list[float]] = {}
    print(f"{'group':<13} {'spec':<15} {'axis':<28} {'seed':>5} {'min diff':>10} {'max diff':>10}"
          f" {'parent s':>9} {'change s':>9}")
    for job, old, new in zip(todo, parent, change):
        diffs = [b - a for a, b in zip(old["values"], new["values"])]
        groups.setdefault(job["group"], []).extend(diffs)
        axis = ",".join(f"{c:.3f}" for c in job["axis"])
        print(f"{job['group']:<13} {job['spec']:<15} {axis:<28} {job['seed']:>5} "
              f"{min(diffs):>10.2e} {max(diffs):>10.2e} {old['s']:>9.3f} {new['s']:>9.3f}")
    for group, diffs in groups.items():
        print(f"{group}: {len(diffs)} points, min diff {min(diffs):.2e}, max diff {max(diffs):.2e}")
    falls = [d for diffs in groups.values() for d in diffs if d < 0]
    print(f"{len(falls)} points where CHANGE < PARENT"
          + (f", the largest fall {-min(falls):.2e}" if falls else ""))
    return 1 if falls else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
