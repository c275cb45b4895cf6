"""Seed-independent correctness checks on the artifact of each benchmark op.

Reference values are written out here rather than read from the library, so
a change to the library's own tables cannot loosen a check.  The classical
optimum of any set comes from an independent oracle: with a one-bit message
the best decoding of label y is z = ω xor c_y, so

    wins = (2^n k + max_s sum_x |sum_y s_y g[x,y]|) / 2,  s in {+1,-1}^k,

where g[x,y] = (-1)^{f_y(x)}.  Each check returns None when the artifact is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from grac.classical import ClassicalStrategy, evaluate_classical
from grac.eacc import EACCStrategy, evaluate_eacc
from grac.errors import GracError
from grac.mubs import FunctionSet
from grac.quantum import PMStrategy, evaluate_pm


def _closed_form(k: int) -> float:
    return 0.5 * (1.0 + 1.0 / math.sqrt(k))


OPEN_QUAD_QUBIT = 0.5 * (1.0 + (math.sqrt(2.0) + math.sqrt(6.0)) / 8.0)

# Width-3 representative sets, as the CLI's k=<m>[:class] specs name them.
SPEC_INTS = {
    "k=2": (1, 2),
    "k=3": (1, 2, 3),
    "k=4:xor-closed": (1, 2, 4, 7),
    "k=4:open": (1, 2, 3, 4),
    "k=5": (1, 2, 3, 4, 5),
    "k=6": (1, 2, 3, 4, 5, 6),
    "k=7": (1, 2, 3, 4, 5, 6, 7),
}
TABLE_Q = {
    "k=2": _closed_form(2),
    "k=3": _closed_form(3),
    "k=4:xor-closed": 0.75,
    "k=4:open": OPEN_QUAD_QUBIT,
    "k=5": _closed_form(5),
    "k=6": _closed_form(6),
    "k=7": _closed_form(7),
}
TABLE_III = {
    "k=2": 0.29289,
    "k=3": 0.13396,
    "k=4:open": 0.22354,
    "k=5": 0.10555,
    "k=6": 0.18349,
    "k=7": 0.14957,
}
# Entanglement-assisted values by (spec, local dimension).
TABLE_IV = {
    ("k=2", 2): _closed_form(2),
    ("k=3", 2): _closed_form(3),
    ("k=4:xor-closed", 2): 0.75,
    ("k=5", 2): _closed_form(5),
    ("k=6", 2): _closed_form(6),
    ("k=7", 2): _closed_form(7),
    ("k=4:open", 4): 0.75,
}
# Local dimensions 2 and 3 reach only the one-qubit value on the open quadruple.
OPEN_QUAD_LOW_DIM = {("k=4:open", 2): OPEN_QUAD_QUBIT, ("k=4:open", 3): OPEN_QUAD_QUBIT}
WINDOW = (0.5, 0.871)

TABLE_Q_TOL = 1e-5
TABLE_III_TOL = 1e-4
TABLE_IV_TOL = 1e-4
OPEN_QUAD_LOW_DIM_TOL = 1e-6
WINDOW_TOL = 0.01
PM_TOL = 1e-9


@lru_cache(maxsize=None)
def classical_wins(n: int, ints: tuple[int, ...]) -> int:
    """Exact classical optimum (wins out of 2^n k) by enumerating decoding signs."""
    xs = np.arange(1 << n)
    g = 1 - 2 * (np.bitwise_count(xs[:, None] & np.array(ints)[None, :]) & 1).astype(np.int64)
    k = len(ints)
    codes = np.arange(1 << (k - 1))
    signs = 1 - 2 * ((codes[:, None] >> np.arange(k - 1)[None, :]) & 1)
    signs = np.hstack([np.ones((len(codes), 1), dtype=signs.dtype), signs])
    best = int(np.abs(signs @ g.T).sum(axis=1).max())
    return ((1 << n) * k + best) // 2


def _labels(payload: dict) -> tuple[int, tuple[int, ...]]:
    bits = payload["labels"]
    return len(bits[0]), tuple(int(b, 2) for b in bits)


def check_classical(payload: dict, expect: dict) -> str | None:
    n, ints = _labels(payload)
    fset = FunctionSet.from_ints(n, ints)
    wins, total = payload["value"]["wins"], payload["value"]["total"]
    if total != (1 << n) * len(ints):
        return f"total {total} is not 2^n k"
    if wins != classical_wins(n, ints):
        return f"wins {wins} != exact optimum {classical_wins(n, ints)}"
    if not payload["strategies"]:
        return "no strategy reported"
    for d in payload["strategies"]:
        replay = evaluate_classical(ClassicalStrategy.from_dict(d), fset).wins
        if replay != wins:
            return f"strategy {d['encoding']} replays to {replay} wins, reported {wins}"
    return None


def check_quantum(payload: dict, expect: dict) -> str | None:
    n, ints = _labels(payload)
    k = len(ints)
    value = payload["value"]
    classical = classical_wins(n, ints) / ((1 << n) * k)
    if not classical - PM_TOL <= value <= _closed_form(k) + PM_TOL:
        return f"value {value!r} outside [classical {classical!r}, bound {_closed_form(k)!r}]"
    replay = evaluate_pm(PMStrategy.from_dict(payload["strategy"]), FunctionSet.from_ints(n, ints))
    if abs(replay - value) > PM_TOL:
        return f"strategy replays to {replay!r}, reported {value!r}"
    return None


def check_sweep(payload: dict, expect: dict) -> str | None:
    spec = expect["spec"]
    n, ints = _labels(payload)
    if ints != SPEC_INTS[spec]:
        return f"labels {ints} are not the {spec} set"
    wins = classical_wins(n, ints)
    if (payload["classical"]["wins"], payload["classical"]["total"]) != (wins, (1 << n) * len(ints)):
        return f"classical {payload['classical']} != exact optimum {wins}"
    if payload["lambda"][0] != 0.0:
        return "sweep does not start at lambda = 0"
    if abs(payload["values"][0] - TABLE_Q[spec]) > TABLE_Q_TOL:
        return f"lambda=0 value {payload['values'][0]!r} != Table Q {TABLE_Q[spec]!r}"
    classical = wins / ((1 << n) * len(ints))
    low = min(payload["values"])
    if low < classical - 1e-12:
        return f"sweep value {low!r} below the classical value {classical!r}"
    return None


def check_threshold(payload: dict, expect: dict) -> str | None:
    ref = TABLE_III[expect["spec"]]
    if abs(payload["lambda_crit"] - ref) > TABLE_III_TOL:
        return f"lambda_crit {payload['lambda_crit']!r} != Table III {ref!r}"
    return None


def check_window(payload: dict, expect: dict) -> str | None:
    got = (payload["low"], payload["high"])
    if any(abs(g - w) > WINDOW_TOL for g, w in zip(got, WINDOW)):
        return f"window {got} not within {WINDOW_TOL} of {WINDOW}"
    return None


def check_eacc(payload: dict, expect: dict) -> str | None:
    key = (expect["spec"], expect["local_dim"])
    ref, tol = (
        (TABLE_IV[key], TABLE_IV_TOL) if key in TABLE_IV else (OPEN_QUAD_LOW_DIM[key], OPEN_QUAD_LOW_DIM_TOL)
    )
    value = payload["value"]
    if abs(value - ref) > tol:
        return f"value {value!r} != reference {ref!r} (tolerance {tol:g})"
    if payload["local_dim"] != expect["local_dim"]:
        return f"local dim {payload['local_dim']} != requested {expect['local_dim']}"
    n, ints = _labels(payload)
    if ints != SPEC_INTS[expect["spec"]]:
        return f"labels {ints} are not the {expect['spec']} set"
    replay = evaluate_eacc(EACCStrategy.from_dict(payload["strategy"]), FunctionSet.from_ints(n, ints))
    if abs(replay - value) > PM_TOL:
        return f"strategy replays to {replay!r}, reported {value!r}"
    return None


CHECKS = {
    "classical": check_classical,
    "quantum": check_quantum,
    "sweep": check_sweep,
    "threshold": check_threshold,
    "window": check_window,
    "eacc": check_eacc,
}


def check_artifact(op: dict, path: str) -> str | None:
    """Judge one op's artifact file; an unreadable or malformed artifact fails."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
        return CHECKS[op["kind"]](payload, op["expect"])
    except (OSError, ValueError, KeyError, IndexError, TypeError, GracError) as exc:
        return f"malformed artifact: {type(exc).__name__}: {exc}"
