"""Span tracing of grac's layers from outside the library.

`install` wraps the public functions of each layer module and rebinds every
module-level reference to them across the loaded `grac` modules, since
functions such as `classical_optimum` are imported by name into several
modules.  Each call records a span (name, layer, start, end, parent, op) in
memory.  The library source is not touched.

Layers:
  cli             public functions of grac.cli (an op is one `main` call)
  cli.serialize   strategy `to_dict` methods and the `json.dumps` in grac.cli
  classical, quantum, channels, eacc   public functions of those modules
  backends        the `run_seesaw` kernel as bound in grac.quantum
  eacc.einsum, eacc.eigh   numpy calls made from grac.eacc

A layer whose module or function no longer exists is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

FUNCTION_LAYERS = ("cli", "classical", "quantum", "channels", "eacc")
LAYERS = FUNCTION_LAYERS + ("cli.serialize", "backends", "eacc.einsum", "eacc.eigh")

# span fields
NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


class Tracer:
    """In-memory span recorder; spans are lists indexed by the field constants."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.absent: list[str] = []

    def wrap(self, fn, name: str, layer: str, info=None):
        """Wrap fn so each call records a span; info(args, result) annotates it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def write(self, path: str, first: int = 0) -> None:
        """Write spans from index `first` on as JSON lines."""
        with open(path, "w") as handle:
            for i in range(first, len(self.spans)):
                s = self.spans[i]
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "layer": s[LAYER],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "op": s[OP],
                            "info": s[INFO],
                        }
                    )
                    + "\n"
                )


def _rebind(old, new) -> int:
    """Point every module-level reference to `old` in grac modules at `new`."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "grac" or mod_name.startswith("grac.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                count += 1
    return count


class _Proxy:
    """Stand-in for a module: overridden attributes first, the module otherwise."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _kernel_info(args, result):
    v0 = np.asarray(args[2])
    iters = np.asarray(result[1])
    return {
        "rows": int(v0.shape[0]) if v0.ndim == 3 else 1,
        "trips": int(iters.max()),
        "useful": int(iters.sum()),
    }


def _bytes_info(args, result):
    return {"bytes": len(result)}


def install(tracer: Tracer) -> None:
    """Wrap every layer; layers that cannot be found go to tracer.absent."""
    for layer in FUNCTION_LAYERS:
        try:
            mod = importlib.import_module(f"grac.{layer}")
        except ImportError:
            tracer.absent.append(layer)
            continue
        public = [
            (name, fn)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
        ]
        if not public:
            tracer.absent.append(layer)
        for name, fn in public:
            _rebind(fn, tracer.wrap(fn, f"{layer}.{name}", layer))

    quantum = sys.modules.get("grac.quantum")
    kernel = getattr(quantum, "run_seesaw", None)
    if kernel is None:
        tracer.absent.append("backends")
    else:
        _rebind(kernel, tracer.wrap(kernel, "backends.run_seesaw", "backends", _kernel_info))

    serialized = 0
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("grac."):
            continue
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod_name and "to_dict" in vars(cls):
                fn = vars(cls)["to_dict"]
                setattr(cls, "to_dict", tracer.wrap(fn, f"{cls.__name__}.to_dict", "cli.serialize"))
                serialized += 1
    cli = sys.modules.get("grac.cli")
    if cli is not None and getattr(cli, "json", None) is json:
        cli.json = _Proxy(json, dumps=tracer.wrap(json.dumps, "json.dumps", "cli.serialize", _bytes_info))
        serialized += 1
    if not serialized:
        tracer.absent.append("cli.serialize")

    eacc = sys.modules.get("grac.eacc")
    wrapped = {"einsum": 0, "eigh": 0}
    if eacc is not None:
        einsum = tracer.wrap(np.einsum, "numpy.einsum", "eacc.einsum")
        eigh = tracer.wrap(np.linalg.eigh, "numpy.linalg.eigh", "eacc.eigh")
        linalg = _Proxy(np.linalg, eigh=eigh)
        for attr, value in list(vars(eacc).items()):
            if value is np:
                setattr(eacc, attr, _Proxy(np, einsum=einsum, linalg=linalg))
                wrapped["einsum"] += 1
                wrapped["eigh"] += 1
            elif value is np.linalg:
                setattr(eacc, attr, linalg)
                wrapped["eigh"] += 1
            elif value is np.einsum:
                setattr(eacc, attr, einsum)
                wrapped["einsum"] += 1
            elif value is np.linalg.eigh:
                setattr(eacc, attr, eigh)
                wrapped["eigh"] += 1
    tracer.absent.extend(f"eacc.{name}" for name, n in wrapped.items() if n == 0)


def summarize(spans: list[list], first: int, last: int) -> dict:
    """Per-layer metrics over spans[first:last] (one pass of ops).

    A layer's calls and s count the spans that enter it from another layer
    (or from the benchmark), so nested calls inside a layer are not counted
    twice; self_s is each span's duration minus the time its direct children
    cover, summed over the layer.
    """
    calls = {layer: 0 for layer in LAYERS}
    incl = {layer: 0.0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    child = {}
    in_channels = {}
    seesaw_in_channels = 0
    rows = trips = useful = padded = 0
    serialize_bytes = 0
    for i in range(first, last):
        s = spans[i]
        dur = s[END] - s[START]
        parent = s[PARENT]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + dur
        in_channels[i] = s[LAYER] == "channels" or in_channels.get(parent, False)
        if s[NAME] == "quantum.seesaw" and in_channels.get(parent, False):
            seesaw_in_channels += 1
        if parent < 0 or spans[parent][LAYER] != s[LAYER]:
            calls[s[LAYER]] += 1
            incl[s[LAYER]] += dur
        if s[LAYER] == "backends":
            info = s[INFO]
            rows += info["rows"]
            trips += info["trips"]
            useful += info["useful"]
            padded += info["rows"] * info["trips"]
        elif s[NAME] == "json.dumps":
            serialize_bytes += s[INFO]["bytes"]
    for i in range(first, last):
        s = spans[i]
        self_s[s[LAYER]] += (s[END] - s[START]) - child.get(i, 0.0)

    kernel_s = incl["backends"]
    return {
        "classical.calls": calls["classical"],
        "classical.s": incl["classical"],
        "classical.self_s": self_s["classical"],
        "quantum.calls": calls["quantum"],
        "quantum.s": incl["quantum"],
        "quantum.self_s": self_s["quantum"],
        "backends.run_seesaw.calls": calls["backends"],
        "backends.run_seesaw.rows": rows,
        "backends.run_seesaw.trips": trips,
        "backends.run_seesaw.useful_ratio": useful / padded if padded else 0.0,
        "backends.run_seesaw.s": kernel_s,
        "backends.run_seesaw.s_per_trip": kernel_s / trips if trips else 0.0,
        "channels.calls": calls["channels"],
        "channels.s": incl["channels"],
        "channels.self_s": self_s["channels"],
        "channels.seesaw_calls": seesaw_in_channels,
        "eacc.calls": calls["eacc"],
        "eacc.s": incl["eacc"],
        "eacc.self_s": self_s["eacc"],
        "eacc.einsum.calls": calls["eacc.einsum"],
        "eacc.einsum.s": incl["eacc.einsum"],
        "eacc.eigh.calls": calls["eacc.eigh"],
        "eacc.eigh.s": incl["eacc.eigh"],
        "cli.calls": calls["cli"],
        "cli.s": incl["cli"],
        "cli.self_s": self_s["cli"],
        "cli.serialize.s": incl["cli.serialize"],
        "cli.serialize.bytes": serialize_bytes,
    }


def median_summary(summaries: list[dict]) -> dict:
    """Median of each metric over passes."""
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
