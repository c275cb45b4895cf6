"""Benchmark worker: one fresh process that imports grac and runs CLI ops.

    python3 perfbench/worker.py SRC_DIR               time set-up only, print JSON
    python3 perfbench/worker.py SRC_DIR PLAN RESULT   also run the plan's ops

Set-up is `import grac` plus one `grac mubs --check 100,010`, timed from a
fresh interpreter.  Ops then run as a closed loop with one client: each op is
an in-process `grac.cli.main(argv + ["--out", path])` call that starts only
after the previous one returned.  Passes over the op list repeat until the
plan's time budget is spent.  After each untraced pass the worker waits for
one set-up probe, a fresh `worker.py SRC_DIR` process, so that set-up is
sampled across the whole run.  With tracing on, untraced passes run first and
traced passes after them, each for half the budget.
"""

import contextlib
import functools
import io
import json
import os
import resource
import subprocess
import sys
import time

PROBE_TIMEOUT_S = 30


def _setup(src: str) -> tuple[float, object]:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import grac
    import grac.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = grac.cli.main(["mubs", "--check", "100,010"])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"set-up op `grac mubs --check 100,010` exited {rc}")
    if not os.path.abspath(grac.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported grac from {grac.__file__}, not from {src}")
    return elapsed, grac


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _reference_loop() -> float:
    """Seconds for a fixed loop of small numpy calls and Python arithmetic.

    The loop shares no code with grac and measures how fast the host runs
    work like grac's at this moment.  numpy is imported here, after set-up
    has been timed, because set-up must pay for its import.
    """
    import numpy

    sym = numpy.arange(256.0).reshape(16, 16) % 7.0
    quad = numpy.arange(256.0).reshape(4, 4, 4, 4) % 5.0
    t0 = time.perf_counter()
    for _ in range(40):
        numpy.linalg.eigh(sym + sym.T)
        numpy.einsum("abcd,cdef->abef", quad, quad)
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - t0


def _run_pass(cli, ops, out_dir, tag, tracer) -> dict:
    """One pass over the ops; the reference loop runs before the first op and after each."""
    ops_out = []
    sink = io.StringIO()
    ref_before = _reference_loop()
    for i, op in enumerate(ops):
        path = os.path.join(out_dir, f"{tag}-{i}.json")
        argv = op["argv"] + ["--out", path]
        if tracer is not None:
            tracer.op = f"{tag}-{i}"
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            c0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) and exc.code else 1
            except Exception as exc:  # an op that crashes is a failed op, not a dead run
                rc, error = -1, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            cpu = _cpu_s() - c0
        if rc != 0 and error is None:
            error = sink.getvalue().strip()[-500:]
        sink.seek(0)
        sink.truncate()
        ref_after = _reference_loop()
        ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        ops_out.append(
            {"latency_s": latency, "cpu_s": cpu, "ref_s": ref, "rc": rc, "error": error, "path": path}
        )
    return {"ops": ops_out}


def _probe_setup(src: str) -> float:
    """Set-up time of one fresh worker process, which this one waits for."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), src],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _run_passes(cli, ops, out_dir, prefix, budget, tracer, probe=None) -> list[dict]:
    """Passes over the ops until `budget` seconds are spent; probe() follows each."""
    passes = []
    t_start = time.perf_counter()
    while True:
        first = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        result = _run_pass(cli, ops, out_dir, f"{prefix}{len(passes)}", tracer)
        if tracer is not None:
            result["spans"] = (first, len(tracer.spans))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if probe is not None:
            result["setup_s"] = probe()
        passes.append(result)
        now = time.perf_counter()
        if now - t_start + (now - t0) > budget:
            return passes


def main(argv: list[str]) -> int:
    setup_s, grac = _setup(argv[0])
    import platform

    import numpy

    info = {
        "setup_s": setup_s,
        "backend": getattr(grac, "BACKEND", "absent"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if len(argv) == 1:
        print(json.dumps(info))
        return 0

    with open(argv[1]) as handle:
        plan = json.load(handle)
    ops, out_dir, seconds = plan["ops"], plan["out_dir"], plan["seconds"]
    budget = seconds / 2 if plan["trace"] else seconds
    probe = functools.partial(_probe_setup, argv[0])
    info["passes"] = _run_passes(grac.cli, ops, out_dir, "p", budget, None, probe)

    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = _run_passes(grac.cli, ops, out_dir, "t", budget, tracer)
        for p in traced:
            p["layers"] = tracing.summarize(tracer.spans, *p["spans"])
        info["traced_passes"] = traced
        info["absent_layers"] = tracer.absent
        tracer.write(plan["spans_path"], traced[-1]["spans"][0])

    with open(argv[2], "w") as handle:
        json.dump(info, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
