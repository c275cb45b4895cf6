"""Optimal one-qubit protocols for the n=3 question sets, derived from their measurements.

Each case stores only Bob's half: one unit Bloch vector v_y per label.
Alice's preparations are her best reply to it,

    r_x = V_x / |V_x|,   V_x = sum_y g[x,y] v_y,   g[x,y] = (-1)^{f_y(x)},

which maximizes r_x . V_x for every input at once.  Every case has
|V_x| >= sqrt(2), so the division needs no zero guard.  All of the protocols
are fixed points of the see-saw alternation and attain the known optima:

    A        two questions          1/2 (1 + 1/sqrt(2))
    B1, B2   three questions        1/2 (1 + 1/sqrt(3))
    C        open quadruple         1/2 (1 + (sqrt(2)+sqrt(6))/8)
    D_box,
    D_planar quintuple              1/2 (1 + 1/sqrt(5))
    E        sextuple               1/2 (1 + 1/sqrt(6))

that is, the bound `pm_upper_bound(k)` for every case except C.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnknownCaseError
from .mubs import FunctionSet, sign_matrix
from .quantum import PMStrategy, pm_upper_bound

_X, _Y, _Z = np.eye(3)

# Bob's measurement vector per label bitstring, one row per case
_CASES = {
    "A": {"100": _X, "010": _Y},
    "B1": {"100": _X, "010": _Y, "001": _Z},
    "B2": {"100": _X, "010": _Y, "110": _Z},
    "C": {"100": _X, "010": _X, "001": _Y, "110": _Z},
    "D_box": {"100": _X, "010": _Y, "001": _Z, "110": _Z, "101": -_Y},
    "D_planar": {"100": _X, "010": _Y, "001": -_Y, "110": _Y, "101": _Y},
    "E": {"100": _X, "010": -_X, "001": _Z, "110": _Y, "101": _X, "011": _X},
}

REFERENCE_CASES = tuple(_CASES)


def _measurements(case: str) -> dict[str, np.ndarray]:
    try:
        return _CASES[case]
    except KeyError:
        raise UnknownCaseError(
            f"no reference case {case!r}; pick one of {REFERENCE_CASES}"
        ) from None


def reference_value(case: str) -> float:
    """Closed-form success probability of a reference case."""
    k = len(_measurements(case))
    if case == "C":  # the open quadruple falls short of the bound
        return 0.5 * (1.0 + (math.sqrt(2.0) + math.sqrt(6.0)) / 8.0)
    return pm_upper_bound(k)


def reference_protocol(case: str) -> tuple[FunctionSet, PMStrategy]:
    """Question set and strategy of a named case: its measurements and Alice's best reply."""
    meas = _measurements(case)
    fset = FunctionSet.from_bitstrings(",".join(meas))
    vmat = np.array([meas[lab.bitstring()] for lab in fset])
    big_v = sign_matrix(fset) @ vmat
    preps = big_v / np.linalg.norm(big_v, axis=1, keepdims=True)
    return fset, PMStrategy(fset.n, dict(enumerate(preps)), dict(zip(fset.ints, vmat)))
