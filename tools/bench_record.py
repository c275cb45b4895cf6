"""Record benchmark runs of this checkout in a BENCH_<pr>.json file.

    python3 tools/bench_record.py --pr <n> --side change --workloads eacc_dims
    python3 tools/bench_record.py --pr <n> --side change --trace 1 --seed 798

Each invocation runs perfbench/run.py once per workload, on the checkout
this script sits in, for the `run_seconds` of BENCHMARK.json, and appends
the result line to the runs of `--side` (`parent` or `change`) in
BENCH_<pr>.json at the checkout's root, or in `--out`.  The file is written
after each workload, so a later failure keeps the runs already made.  To
measure a parent commit, copy this script into a clone of that commit, run
it with `--side parent` and point `--out` at the same file; alternating the
two sides one run at a time gives the before/after pairs.

The file holds the machine, Python, numpy and kernel the runs used (runs
from another machine are refused), every run's result line and commit, each
side's median and quartiles per workload and metric, and, once both sides
have runs of a workload, a comparison: the medians, the change's relative
move, the parent's quartile distance, and how many pairs in run order the
change wins.  Traced runs are kept apart, under `<workload>+trace`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
RUN_TIMEOUT_S = 900

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402


class RecordError(Exception):
    """A run failed, or the file belongs to another machine."""


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run; returns (result line, details line)."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RecordError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def machine(details: dict) -> dict:
    prov = details["provenance"]
    return {
        "cpu_model": prov["cpu_model"],
        "nproc": prov["nproc"],
        "blas_thread_cap": prov["blas_thread_cap"],
        "python": prov["python"],
        "numpy": prov["numpy"],
        "kernel": platform.release(),
        "arch": platform.machine(),
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["line"]["metrics"]
    return {
        "runs": len(runs),
        "failed": sum(r["line"]["failed"] for r in runs),
        "attempted": sum(r["line"]["attempted"] for r in runs),
        "metrics": {
            name: spread([r["line"]["metrics"][name]["value"] for r in runs]) for name in names
        },
    }


def compare(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Per metric: medians, relative move, parent quartile distance, pair wins."""
    before, after = summarize(parent), summarize(change)
    pairs = list(zip(parent, change))
    out = {}
    for name, b in before["metrics"].items():
        a = after["metrics"][name]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(
            sign * (c["line"]["metrics"][name]["value"] - p["line"]["metrics"][name]["value"]) > 0
            for p, c in pairs
        )
        out[name] = {
            "parent_median": b["median"],
            "change_median": a["median"],
            "relative": a["median"] / b["median"] - 1.0 if b["median"] else None,
            "parent_iqr": b["q3"] - b["q1"],
            "change_wins": f"{wins}/{len(pairs)}",
        }
    return out


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def write(path: str, doc: dict) -> None:
    spec = benchmark_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = doc["sides"].get("parent", {}), doc["sides"].get("change", {})
    doc["comparison"] = {
        key: compare(parent[key]["runs"], change[key]["runs"], better)
        for key in sorted(parent.keys() & change.keys())
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def record(path: str, pr: int, side: str, workloads: list[str], seed: int, trace: int) -> dict:
    doc = {"pr": pr, "machine": None, "sides": {}}
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    seconds = benchmark_spec()["run_seconds"]
    for workload in workloads:
        line, details = run_once(workload, seed, seconds, trace)
        here = machine(details)
        if doc["machine"] is None:
            doc["machine"] = here
        elif doc["machine"] != here:
            raise RecordError(f"{path} was recorded on {doc['machine']}, this is {here}")
        key = workload + ("+trace" if trace else "")
        runs = doc["sides"].setdefault(side, {}).setdefault(key, {}).setdefault("runs", [])
        runs.append({
            "commit": details["provenance"]["git_commit"],
            "seed": seed,
            "seconds": seconds,
            "line": line,
        })
        doc["sides"][side][key]["summary"] = summarize(runs)
        write(path, doc)
        print(json.dumps({"side": side, "workload": key, "line": line}))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--side", required=True, choices=("parent", "change"),
                        help="which side of the comparison this checkout is")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="default: BENCH_<pr>.json at the checkout root")
    args = parser.parse_args(argv)
    path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    try:
        record(path, args.pr, args.side, args.workloads, args.seed, args.trace)
    except (RecordError, subprocess.TimeoutExpired) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
