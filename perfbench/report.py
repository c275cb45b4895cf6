"""Print every benchmark metric by name and unit, for each workload.

    python3 perfbench/report.py [--seed 0] [--seconds 35] [--workloads census_w4,pm_sweep]

Runs `perfbench/run.py` twice per workload, untraced for the end-to-end
metrics and traced for the per-layer ones, exactly as BENCHMARK.json's
command does, and prints the results with the run's provenance.  The share
line gives the part of the traced wall time spent in the layers that should
dominate the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layers whose time should cover most of a workload's traced wall time.
DOMINANT = {
    "census_w4": ("classical.s", "backends.run_seesaw.s"),
    "pm_sweep": ("backends.run_seesaw.s", "channels.self_s"),
    "eacc_dims": ("eacc.einsum.s", "eacc.eigh.s"),
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    details, line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details)["details"], json.loads(line)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    provenance = None
    for workload in args.workloads.split(","):
        details, line = run_once(workload, args.seed, args.seconds, 0)
        traced_details, traced = run_once(workload, args.seed, args.seconds, 1)
        if provenance is None:
            provenance = details["provenance"]
            print("provenance: " + ", ".join(f"{k}={v}" for k, v in provenance.items()))
        print(
            f"\n== {workload} (seed {args.seed}, {args.seconds:g} s): correct={line['correct']}, "
            f"failed {line['failed']} of {line['attempted']} ops "
            f"(fail_ratio {line['failed'] / line['attempted']:.4f}); "
            f"{details['passes']} passes of {details['ops_per_pass']} ops"
        )
        for name, m in line["metrics"].items():
            note = ""
            if name == "op_tail_ref":
                note = (
                    f"  (p{details['op_tail_percentile']:.1f} of "
                    f"{details['ops_per_pass']} ops per pass)"
                )
            print(f"  {name:<34} {_fmt(m['value']):>14} {m['unit']}{note}")
        timings = details["timings"]
        print(f"  in seconds: wall_s {_fmt(timings['wall_s'])}, ref_s {_fmt(timings['ref_s'])}")
        print(
            f"  -- traced run: correct={traced['correct']}, failed {traced['failed']} of "
            f"{traced['attempted']} ops; {traced_details['traced_passes']} traced passes; "
            f"absent layers: {', '.join(traced_details['absent_layers']) or 'none'}"
        )
        for name, m in traced["metrics"].items():
            print(f"  {name:<34} {_fmt(m['value']):>14} {m['unit']}")
        values = {name: m["value"] for name, m in traced["metrics"].items()}
        wall = values["trace.wall_s"]
        share = sum(values[name] for name in DOMINANT[workload]) / wall
        print(f"  share of trace.wall_s in {' + '.join(DOMINANT[workload])}: {share:.3f}")
        for failure in details["failures"] + traced_details["failures"]:
            print(f"  FAILED {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
