"""Unital qubit noise on Bloch vectors and noise-robustness analysis.

Depolarizing noise shrinks every Bloch vector by 1-lambda; dephasing along a
unit axis n keeps the axis component and shrinks the rest by 1-2*lambda.
Both act linearly, so they enter the prepare-and-measure objective as the
3x3 matrix handed to the see-saw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import Rational, classical_optimum
from .errors import InvalidInputError, NoCrossingError, check_integer
from .mubs import FunctionSet
from .quantum import _unit_axis, classical_start_vectors, seesaw

DEPOLARIZING = "depolarizing"
DEPHASING = "dephasing"


@dataclass(frozen=True)
class BlochMap:
    """Linear action of a unital qubit channel on Bloch vectors."""

    kind: str
    lam: float
    axis: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind == DEPOLARIZING:
            if not 0.0 <= self.lam <= 1.0:
                raise InvalidInputError(
                    f"depolarizing strength must be in [0, 1], got {self.lam}"
                )
            if self.axis is not None:
                raise InvalidInputError("depolarizing noise takes no axis")
        elif self.kind == DEPHASING:
            if not 0.0 <= self.lam <= 0.5:
                raise InvalidInputError(
                    f"dephasing strength must be in [0, 1/2], got {self.lam}"
                )
            if self.axis is None:
                raise InvalidInputError("dephasing noise needs an axis")
            object.__setattr__(self, "axis", _unit_axis(self.axis))
        else:
            raise InvalidInputError(
                f"kind must be {DEPOLARIZING!r} or {DEPHASING!r}, got {self.kind!r}"
            )

    @classmethod
    def depolarizing(cls, lam: float) -> "BlochMap":
        return cls(DEPOLARIZING, lam)

    @classmethod
    def dephasing(cls, lam: float, axis=(1.0, 0.0, 0.0)) -> "BlochMap":
        return cls(DEPHASING, lam, tuple(np.asarray(axis, dtype=np.float64)))

    def matrix(self) -> np.ndarray:
        if self.kind == DEPOLARIZING:
            return (1.0 - self.lam) * np.eye(3)
        n = np.asarray(self.axis)
        proj = np.outer(n, n)
        return proj + (1.0 - 2.0 * self.lam) * (np.eye(3) - proj)


def critical_depolarizing(fset: FunctionSet, restarts: int = 8, seed: int = 0) -> float:
    """Noise level where the depolarized optimal quantum value meets the classical one.

    Depolarizing shrinks every preparation uniformly, so the optimal strategy
    stays optimal and its value is 1/2 + (1-lambda)(S_Q - 1/2); solving
    against S_C gives lambda = 1 - (S_C - 1/2)/(S_Q - 1/2).  Zero when the
    set offers no quantum advantage.
    """
    s_c = classical_optimum(fset, max_strategies=1)[0].value
    s_q = seesaw(fset, restarts=restarts, seed=seed).value
    if s_q <= s_c:
        return 0.0
    return 1.0 - (s_c - 0.5) / (s_q - 0.5)


def dephasing_grid(points: int = 101) -> list[float]:
    """`points` evenly spaced dephasing strengths from 0 to 1/2, both ends included."""
    check_integer("grid points", points)
    if points < 2:
        raise InvalidInputError("need at least two grid points")
    return [0.5 * i / (points - 1) for i in range(points)]


@dataclass(frozen=True)
class SweepResult:
    """Optimized quantum value along a noise grid, with the classical baseline."""

    lam: tuple[float, ...]
    values: tuple[float, ...]
    classical: Rational

    @property
    def ratio(self) -> tuple[float, ...]:
        return tuple(v / self.classical.value for v in self.values)

    def rows(self):
        """(lambda, 1-lambda, quantum, classical, ratio) per grid point."""
        c = self.classical.value
        for lam, val, rat in zip(self.lam, self.values, self.ratio):
            yield (lam, 1.0 - lam, val, c, rat)


def dephasing_sweep(
    fset: FunctionSet,
    axis=(1.0, 0.0, 0.0),
    grid=None,
    restarts: int = 8,
    seed: int = 0,
) -> SweepResult:
    """Re-optimized quantum value across dephasing strengths (default `dephasing_grid()`).

    Each grid point re-runs the see-saw with the channel in the objective,
    warm-started from the previous point's optimum plus a classical
    embedding along the dephasing axis (which the channel never damps) and
    cold random restarts.
    """
    axis = _unit_axis(axis)
    grid = tuple(float(g) for g in (dephasing_grid() if grid is None else grid))
    if not grid:
        raise InvalidInputError("the dephasing grid is empty")
    bmaps = [BlochMap.dephasing(lam, axis) for lam in grid]  # range-checks every point
    s_c = classical_optimum(fset, max_strategies=1)[0]
    cls_start = classical_start_vectors(fset, axis)
    values = []
    extra = [cls_start]
    for i, bmap in enumerate(bmaps):
        n_cold = restarts if i == 0 else 1
        report = seesaw(fset, restarts=n_cold, seed=seed + i, channel=bmap, extra_starts=extra)
        values.append(report.value)
        extra = [cls_start, report.best_strategy.meas_array(fset)]
    return SweepResult(grid, tuple(values), s_c)


def crossing_window(
    set_a: FunctionSet,
    set_b: FunctionSet,
    axis=(1.0, 0.0, 0.0),
    grid=None,
    refine_tol: float = 1e-4,
    restarts: int = 8,
    seed: int = 0,
) -> tuple[float, float]:
    """Maximal interval of 1-lambda where set_a's optimized value exceeds set_b's.

    Both dephasing sweeps run on a common grid (default `dephasing_grid()`);
    the longest run of strictly positive difference is the window, and
    endpoints interior to the grid are sharpened by bisection down to
    refine_tol (in lambda).  Raises NoCrossing when either curve dominates
    the whole grid (or they tie everywhere).
    """
    if not (np.isfinite(refine_tol) and refine_tol > 0):
        raise InvalidInputError(f"refine_tol must be finite and positive, got {refine_tol!r}")
    axis = _unit_axis(axis)
    sweep_a = dephasing_sweep(set_a, axis, grid, restarts, seed)
    grid = sweep_a.lam
    sweep_b = dephasing_sweep(set_b, axis, grid, restarts, seed)
    diff = np.array(sweep_a.values) - np.array(sweep_b.values)
    positive = diff > 0
    if not positive.any():
        raise NoCrossingError("the second set dominates (or ties) everywhere on the grid")
    if positive.all():
        raise NoCrossingError("the first set dominates everywhere on the grid")

    # longest run of consecutive grid points with A strictly above B
    runs = []
    start = None
    for i, flag in enumerate(positive):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(grid) - 1))
    lo_i, hi_i = max(runs, key=lambda ab: grid[ab[1]] - grid[ab[0]])

    cls_a = classical_start_vectors(set_a, axis)
    cls_b = classical_start_vectors(set_b, axis)

    def diff_at(lam, j):
        bmap = BlochMap.dephasing(lam, axis)
        seed_j = seed + 7919 * j
        va = seesaw(set_a, restarts=restarts, seed=seed_j, channel=bmap, extra_starts=[cls_a])
        vb = seesaw(set_b, restarts=restarts, seed=seed_j + 1, channel=bmap, extra_starts=[cls_b])
        return va.value - vb.value

    def refine(inside_i, outside_i):
        lo, hi = grid[inside_i], grid[outside_i]
        j = 0
        while abs(hi - lo) > refine_tol:
            mid = 0.5 * (lo + hi)
            j += 1
            if diff_at(mid, j) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lam_lo = grid[lo_i] if lo_i == 0 else refine(lo_i, lo_i - 1)
    lam_hi = grid[hi_i] if hi_i == len(grid) - 1 else refine(hi_i, hi_i + 1)
    return (1.0 - lam_hi, 1.0 - lam_lo)
