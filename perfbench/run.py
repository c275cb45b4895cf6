"""Run one benchmark workload against the grac sources in this checkout.

    python3 perfbench/run.py --workload census_w4 --seed 1 --seconds 35 --trace 0

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it holds the run's details: provenance, the
tail percentile and op counts, check failures and absent layers.

Set-up time is the fastest of several fresh worker processes, a few run
before the ops and one after each pass over them, following one warm-up
that compiles bytecode.  One more fresh worker runs the workload's op list
in passes for --seconds (see worker.py); the end-to-end timings are ratios
to a reference loop timed beside each op (see timing_metrics).  Every op's
artifact is checked after the worker has exited, so checks never fall in a
timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 3  # before the ops; the worker runs one more after each pass
TAIL_BEYOND = 10  # the tail percentile leaves this many ops of a pass above it
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

sys.path[:0] = [HERE, SRC]
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Environment with BLAS and OpenMP threads capped at the usable cores."""
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def _worker(args: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, SRC, *args],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(probes: int) -> tuple[list[float], dict]:
    """Set-up samples from `probes` fresh workers run one after another."""
    samples, info = [], {}
    for _ in range(probes):
        info = json.loads(_worker([], PROBE_TIMEOUT_S).splitlines()[-1])
        samples.append(info["setup_s"])
    return samples, info


def run_ops(ops: list[dict], seconds: float, trace: bool, out_dir: str, spans_path: str) -> dict:
    """Run the op list in one worker for `seconds`; returns the worker's record."""
    plan_path = os.path.join(out_dir, "plan.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(plan_path, "w") as handle:
        json.dump(
            {
                "ops": ops,
                "seconds": seconds,
                "trace": trace,
                "out_dir": out_dir,
                "spans_path": spans_path,
            },
            handle,
        )
    _worker([plan_path, result_path], WORKER_TIMEOUT_S)
    with open(result_path) as handle:
        return json.load(handle)


def check_passes(ops: list[dict], passes: list[dict]) -> list[str]:
    """One line per failed op: a non-zero exit or an artifact that fails its check.

    Every artifact is judged; one whose bytes equal an artifact the same op
    wrote in an earlier pass gets that artifact's verdict.
    """
    from checks import check_artifact

    failures, verdicts = [], {}
    for p, rec in enumerate(passes):
        for i, (op, done) in enumerate(zip(ops, rec["ops"])):
            if done["rc"] != 0:
                reason = f"exit {done['rc']}: {done['error']}"
            else:
                key = (i, _digest(done["path"]))
                if key not in verdicts:
                    verdicts[key] = check_artifact(op, done["path"])
                reason = verdicts[key]
            if reason is not None:
                failures.append(f"pass {p} op {i} ({' '.join(op['argv'][:3])}): {reason}")
    return failures


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None  # check_artifact reports the missing file


def tail_percentile(n_ops: int) -> float:
    """The highest percentile of a pass that leaves TAIL_BEYOND of its ops above it."""
    if n_ops <= TAIL_BEYOND:
        raise BenchError(f"a pass needs more than {TAIL_BEYOND} ops for a tail, has {n_ops}")
    return 100.0 * (n_ops - TAIL_BEYOND) / n_ops


def op_medians(passes: list[dict], ratio_to_ref: bool, key: str) -> list[float]:
    """Each op's median `key` over the passes, which all repeat the same ops.

    With ratio_to_ref, `key` is first divided by the op's reference time:
    the mean of the reference loop timed just before and just after it.
    """
    def value(op):
        return op[key] / op["ref_s"] if ratio_to_ref else op[key]

    return [statistics.median(value(p["ops"][i]) for p in passes) for i in range(len(passes[0]["ops"]))]


def timing_metrics(passes: list[dict]) -> dict:
    """Timings of one pass, estimated from all passes of the run.

    A shared host runs everything slower for seconds to minutes at a time
    when its other tenants are busy: the median pass time moved by 1.5x
    between runs of the same ops, and each op's fastest run by as much.
    The reference loop timed beside each op slows with it, so the timings
    are taken as ratios to it (unit `ref`): an op's ratio is the median over
    the passes, wall_ref and cpu_ref sum the ops' ratios, and the latency
    percentiles are taken over the ops of a pass, the tail as the highest
    latency with TAIL_BEYOND ops above it.  wall_s and ref_s give the same
    run in seconds, as medians over the passes.
    """
    latencies = sorted(op_medians(passes, True, "latency_s"))
    return {
        "wall_ref": sum(latencies),
        "op_p50_ref": statistics.median(latencies),
        "op_tail_ref": latencies[len(latencies) - 1 - TAIL_BEYOND],
        "cpu_ref": sum(op_medians(passes, True, "cpu_s")),
        "wall_s": sum(op_medians(passes, False, "latency_s")),
        "ref_s": statistics.median(op["ref_s"] for p in passes for op in p["ops"]),
    }


def end_to_end(timings: dict, result: dict, setup_samples: list[float]) -> dict:
    metrics = {name: timings[name] for name in ("wall_ref", "op_p50_ref", "op_tail_ref", "cpu_ref")}
    # After the first pass: each op has run once, as in the fresh process a
    # CLI user starts per call.  Over later passes the peak moved between
    # 87 and 95 MB from run to run of the same census ops.
    metrics["peak_rss_mb"] = result["passes"][0]["peak_rss_mb"]
    metrics["setup_s"] = min(setup_samples)
    return metrics


def per_layer(timings: dict, result: dict) -> dict:
    """Layer metrics from the traced passes; the overhead is converted from ref to seconds."""
    import tracing

    metrics = tracing.median_summary([p["layers"] for p in result["traced_passes"]])
    traced = timing_metrics(result["traced_passes"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = (traced["wall_ref"] - timings["wall_ref"]) * traced["ref_s"]
    return metrics


def declared(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for a plain or a traced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, ops_limit: int | None = None):
    """Measure one workload; returns (result line, details line)."""
    if not os.path.isfile(os.path.join(SRC, "grac", "__init__.py")):
        raise BenchError(f"no grac sources under {SRC}")
    ops = workloads.build(workload)[:ops_limit]
    percentile = tail_percentile(len(ops))
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    try:
        _worker([], PROBE_TIMEOUT_S)  # warm-up: compiles bytecode in a fresh checkout
        setup_samples, info = measure_setup(SETUP_PROBES)
        result = run_ops(ops, seconds, trace, out_dir, spans_path)
        setup_samples += [p["setup_s"] for p in result["passes"]]
        passes = result["passes"] + result.get("traced_passes", [])
        failures = check_passes(ops, passes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    timings = timing_metrics(result["passes"])
    metrics = per_layer(timings, result) if trace else end_to_end(timings, result, setup_samples)
    attempted = len(ops) * len(passes)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "ops_per_pass": len(ops),
        "passes": len(result["passes"]),
        "traced_passes": len(result.get("traced_passes", [])),
        "op_tail_percentile": percentile,
        "timings": timings,
        "pass_wall_s": [sum(op["latency_s"] for op in p["ops"]) for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "absent_layers": result.get("absent_layers", []),
        "setup_samples_s": setup_samples,
        "provenance": {
            "git_commit": _git_commit(),
            "seed": seed,
            "nproc": nproc(),
            "cpu_model": _cpu_model(),
            "python": info["python"],
            "numpy": info["numpy"],
            "grac_backend": info["backend"],
            "blas_thread_cap": nproc(),
        },
    }
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared(trace)
        },
    }
    return line, details


def main(argv=None) -> int:
    # On SIGTERM, unwind so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None, help="use only the first N ops of a pass (smoke runs)"
    )
    args = parser.parse_args(argv)
    try:
        line, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
