"""Qubit prepare-and-measure optimization in Bloch-vector form.

Alice sends the pure state with Bloch vector r_x, Bob measures along v_y and
guesses the parity from the outcome sign.  The average success is

    s = 1/2 + (1/(2 m k)) sum_{x,y} g_y(x) (Lam r_x) . v_y

with g_y(x) = (-1)^{f_y(x)} and Lam an optional linear channel on the
prepared states.  The see-saw alternation (both half-steps closed form)
lower-bounds the optimum; the 1/2(1+1/sqrt(k)) bound certifies it from above
for all cardinalities except the open quadruple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backends import run_seesaw
from .classical import ENUM_MAX_WIDTH, classical_optimum
from .errors import InvalidInputError, WidthMismatchError
from .mubs import FunctionSet, parity, sign_matrix

_UNIT_TOL = 1e-12


def _channel_matrix(channel) -> np.ndarray:
    """Accept None, a 3x3 array, or anything with a .matrix() method."""
    if channel is None:
        return np.eye(3)
    if hasattr(channel, "matrix"):
        return np.asarray(channel.matrix(), dtype=np.float64)
    mat = np.asarray(channel, dtype=np.float64)
    if mat.shape != (3, 3):
        raise ValueError(f"channel matrix must be 3x3, got shape {mat.shape}")
    return mat


def _as_unit(vec, what: str) -> tuple[float, float, float]:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"{what} must be unit norm, got |v| = {norm!r}")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class PMStrategy:
    """Prepare-and-measure strategy: one unit Bloch vector per input and label."""

    n: int
    preparations: dict[int, tuple[float, float, float]]
    measurements: dict[int, tuple[float, float, float]]

    def __post_init__(self) -> None:
        m = 1 << self.n
        if set(self.preparations) != set(range(m)):
            raise ValueError(f"preparations must cover all {m} inputs")
        prep = {x: _as_unit(vec, f"preparation {x}") for x, vec in self.preparations.items()}
        meas = {}
        for r, vec in self.measurements.items():
            if not 0 < r < m:
                raise ValueError(f"measurement label {r} is not a nonzero {self.n}-bit value")
            meas[r] = _as_unit(vec, f"measurement {r}")
        object.__setattr__(self, "preparations", prep)
        object.__setattr__(self, "measurements", meas)

    def prep_array(self) -> np.ndarray:
        m = 1 << self.n
        return np.array([self.preparations[x] for x in range(m)])

    def meas_array(self, fset: FunctionSet) -> np.ndarray:
        try:
            return np.array([self.measurements[lab.r] for lab in fset])
        except KeyError as exc:
            raise ValueError(f"strategy has no measurement for label {exc.args[0]}")

    def to_dict(self) -> dict:
        n = self.n
        return {
            "preparations": {
                format(x, f"0{n}b"): list(vec) for x, vec in sorted(self.preparations.items())
            },
            "measurements": {
                format(r, f"0{n}b"): list(vec) for r, vec in sorted(self.measurements.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PMStrategy":
        if not d["preparations"]:
            raise InvalidInputError("preparations must not be empty")
        preps = {int(b, 2): tuple(v) for b, v in d["preparations"].items()}
        n = len(next(iter(d["preparations"])))
        meas = {int(b, 2): tuple(v) for b, v in d["measurements"].items()}
        return cls(n, preps, meas)


def evaluate_pm(strategy: PMStrategy, fset: FunctionSet, channel=None) -> float:
    """Average success of a fixed strategy, optionally through a channel."""
    if strategy.n != fset.n:
        raise WidthMismatchError(f"strategy width {strategy.n} != set width {fset.n}")
    signs = sign_matrix(fset)
    prep = strategy.prep_array() @ _channel_matrix(channel).T
    meas = strategy.meas_array(fset)
    m, k = signs.shape
    return 0.5 + float(np.einsum("xy,xc,yc->", signs, prep, meas)) / (2.0 * m * k)


def pm_upper_bound(k: int) -> float:
    """Ceiling 1/2(1+1/sqrt(k)) on one-qubit strategies for k unbiased questions."""
    if k < 1:
        raise ValueError(f"cardinality must be positive, got {k}")
    return 0.5 * (1.0 + 1.0 / math.sqrt(k))


def norm_cancellation_check(fset: FunctionSet, measurements) -> float:
    """sum_x ||sum_y g_y(x) v_y||^2; equals 2^n*k for any unit v_y.

    Cross terms vanish because distinct parities agree on exactly half the
    inputs, so only the k diagonal ||v_y||^2 = 1 terms survive each x.
    """
    if isinstance(measurements, dict):
        vmat = np.array([measurements[lab.r] for lab in fset], dtype=np.float64)
    else:
        vmat = np.asarray(measurements, dtype=np.float64)
    big_v = sign_matrix(fset) @ vmat
    return float(np.einsum("xc,xc->", big_v, big_v))


def classical_start_vectors(fset: FunctionSet, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Embed an optimal classical strategy as antipodal vectors along an axis.

    With preparations (-1)^{ω(x)} a and measurements (-1)^{d_y} a, the guess
    sign reproduces the best message-flip decoding, so seeding the see-saw
    with these measurement vectors floors it at the classical optimum (the
    axis matters under dephasing: vectors along the dephasing axis survive).
    """
    _, strategies = classical_optimum(fset, max_strategies=1)
    enc = strategies[0].encoding
    m = 1 << fset.n
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    vecs = np.zeros((len(fset), 3))
    for j, lab in enumerate(fset):
        n00 = sum(1 for x in range(m) if enc(x) == 0 and parity(lab.r, x) == 0)
        n01 = sum(1 for x in range(m) if enc(x) == 0 and parity(lab.r, x) == 1)
        vecs[j] = a if n00 >= n01 else -a
    return vecs


@dataclass(frozen=True)
class SeesawReport:
    """Best restart of a see-saw run."""

    value: float
    iterations: int
    restarts_used: int
    converged: bool
    best_strategy: PMStrategy
    seed: int
    min_step_delta: float


def _random_unit_rows(rng: np.random.Generator, k: int) -> np.ndarray:
    vecs = rng.standard_normal((k, 3))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    while (norms < 1e-9).any():  # essentially never, but stay safe
        bad = norms[:, 0] < 1e-9
        vecs[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / norms


def _safe_unit(vec: np.ndarray) -> tuple[float, float, float]:
    norm = float(np.linalg.norm(vec))
    if norm < 0.5:  # never left its zero initialization; direction is free
        return (0.0, 0.0, 1.0)
    return (float(vec[0] / norm), float(vec[1] / norm), float(vec[2] / norm))


def seesaw(
    fset: FunctionSet,
    restarts: int = 64,
    max_iters: int = 10000,
    tol: float = 1e-10,
    seed: int = 0,
    channel=None,
    extra_starts=None,
) -> SeesawReport:
    """Maximize the average success over one-qubit strategies by alternation.

    Runs `restarts` sphere-uniform starts (sub-seeded from (seed, index)),
    plus a classical-embedding start when the exhaustive classical optimum is
    available, plus any caller-provided warm starts.
    """
    if restarts < 1:
        raise InvalidInputError("need at least one restart")
    if max_iters < 1:
        raise InvalidInputError("need at least one iteration")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tolerance must be finite and positive, got {tol!r}")
    k = len(fset)
    starts = [
        _random_unit_rows(np.random.default_rng((seed, i)), k) for i in range(restarts)
    ]
    if fset.n <= ENUM_MAX_WIDTH:
        starts.append(classical_start_vectors(fset))
    if extra_starts is not None:
        starts.extend(np.asarray(s, dtype=np.float64) for s in extra_starts)

    signs = sign_matrix(fset)
    dmat = _channel_matrix(channel)
    values, iters, min_deltas, rvecs, vvecs, conv = run_seesaw(
        signs, dmat, np.stack(starts), max_iters, tol
    )
    best = int(np.argmax(values))
    m = 1 << fset.n
    strategy = PMStrategy(
        fset.n,
        {x: _safe_unit(rvecs[best, x]) for x in range(m)},
        {lab.r: _safe_unit(vvecs[best, j]) for j, lab in enumerate(fset)},
    )
    return SeesawReport(
        value=float(values[best]),
        iterations=int(iters[best]),
        restarts_used=len(starts),
        converged=bool(conv[best]),
        best_strategy=strategy,
        seed=seed,
        min_step_delta=float(min_deltas[best]),
    )
