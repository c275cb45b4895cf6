"""Compare in-process op timing with a real `python -m grac.cli` subprocess.

    python3 perfbench/crosscheck.py [--repeats 5]

For one op of each workload it prints the median set-up time, the
median in-process latency of the op in a benchmark worker, their sum, and
the median wall time of the same argv run as `python3 -m grac.cli` in a
fresh process.  The subprocess should take about set-up plus in-process
time; the rest is interpreter start-up, which no change to grac can move.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import run
import workloads

# Index of the compared op in each workload's pass: a width-4 see-saw, the
# crossing window, and the open quadruple at local dimension 4.
PICKS = {"census_w4": 21, "pm_sweep": -1, "eacc_dims": -1}


def subprocess_wall(argv: list[str], out_path: str) -> float:
    env = run.worker_env()
    env["PYTHONPATH"] = run.SRC + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "grac.cli", *argv, "--out", out_path],
        env=env,
        cwd=run.ROOT,
        check=True,
        capture_output=True,
        timeout=run.WORKER_TIMEOUT_S,
    )
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    run._worker([], run.PROBE_TIMEOUT_S)
    setup_samples, _ = run.measure_setup(run.SETUP_PROBES)
    setup_s = statistics.median(setup_samples)
    os.makedirs(run.OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="crosscheck-", dir=run.OUT)
    print(f"setup_s (median of {len(setup_samples)} fresh workers): {setup_s:.4f} s")
    print(f"{'workload':<10} {'op':<34} {'in-proc':>8} {'setup+op':>9} {'subproc':>8} {'rest':>7}")
    try:
        for workload in workloads.WORKLOADS:
            op = workloads.build(workload)[PICKS[workload]]
            record = run.run_ops([op] * args.repeats, 0.0, False, out_dir, "")
            inproc = statistics.median(o["latency_s"] for o in record["passes"][0]["ops"])
            out_path = os.path.join(out_dir, "subprocess.json")
            sub = statistics.median(subprocess_wall(op["argv"], out_path) for _ in range(args.repeats))
            label = " ".join(op["argv"][:3]) + " ..."
            print(
                f"{workload:<10} {label:<34} {inproc:8.4f} {setup_s + inproc:9.4f} "
                f"{sub:8.4f} {sub - setup_s - inproc:7.4f}"
            )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
