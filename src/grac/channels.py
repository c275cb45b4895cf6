"""Unital qubit noise on Bloch vectors and noise-robustness analysis.

Depolarizing noise shrinks every Bloch vector by 1-lambda; dephasing along a
unit axis n keeps the axis component and shrinks the rest by 1-2*lambda.
Both act linearly, so they enter the prepare-and-measure objective as the
3x3 matrix handed to the see-saw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seesaw import check_budget
from .classical import Rational
from .errors import InvalidInputError, NoCrossingError, check_integer, check_real, read_reals
from .mubs import FunctionSet
from .quantum import _MAX_ITERS, _game, _solve_points, _unit_axis

DEPOLARIZING = "depolarizing"
DEPHASING = "dephasing"
DEFAULT_AXIS = (1.0, 0.0, 0.0)  # the dephasing axis when none is given
REFINE_TOL = 1e-4  # the crossing window's refinement tolerance, in lambda
_SECTIONS = 8  # a window refinement round splits its bracket into this many cells
MAX_GRID_POINTS = 10_001  # the most points `dephasing_grid` builds


def _check_dephasing_range(lam) -> None:
    if not 0.0 <= lam <= 0.5:
        raise InvalidInputError(f"dephasing strength must be in [0, 1/2], got {lam}")


@dataclass(frozen=True)
class BlochMap:
    """Linear action of a unital qubit channel on Bloch vectors."""

    kind: str
    lam: float
    axis: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        check_real("noise strength", self.lam)
        if self.kind == DEPOLARIZING:
            if not 0.0 <= self.lam <= 1.0:
                raise InvalidInputError(
                    f"depolarizing strength must be in [0, 1], got {self.lam}"
                )
            if self.axis is not None:
                raise InvalidInputError("depolarizing noise takes no axis")
        elif self.kind == DEPHASING:
            _check_dephasing_range(self.lam)
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
    def dephasing(cls, lam: float, axis=DEFAULT_AXIS) -> "BlochMap":
        return cls(DEPHASING, lam, axis)

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
    set offers no quantum advantage.  S_Q is `seesaw`'s value at the same
    restarts and seed, from the same one-point `quantum._solve_points` call,
    and S_C comes from the exact search behind its classical start.
    """
    check_budget(restarts, _MAX_ITERS, seed)
    game = _game(fset)
    s_c = game.classical.value
    s_q = float(_solve_points(game, np.eye(3)[None], restarts, seed).values[0])
    if s_q <= s_c:
        return 0.0
    return 1.0 - (s_c - 0.5) / (s_q - 0.5)


def dephasing_grid(points: int = 101) -> list[float]:
    """`points` evenly spaced dephasing strengths from 0 to 1/2, both ends included.

    `points` runs from 2 to MAX_GRID_POINTS = 10,001, one hundred times the
    default grid; a larger count is refused before any list is built."""
    check_integer("grid points", points)
    if points < 2:
        raise InvalidInputError("need at least two grid points")
    if points > MAX_GRID_POINTS:
        raise InvalidInputError(f"at most {MAX_GRID_POINTS} grid points, got {points}")
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


def _dephasing_matrices(grid, axis) -> np.ndarray:
    """One dephasing matrix along `axis` per strength in `grid`, as
    `BlochMap.dephasing(lam, axis).matrix()` builds it, bit for bit; each
    strength is checked first, with `BlochMap`'s messages.  axis is taken
    as given, a unit axis from `_unit_axis` (`_sweep_inputs`): a second
    division by its norm may move its last bits."""
    for lam in grid:
        check_real("noise strength", lam)
        _check_dephasing_range(lam)
    n = np.asarray(axis)
    proj = np.outer(n, n)
    shrink = 1.0 - 2.0 * np.asarray(grid, dtype=np.float64)
    return proj + shrink[:, None, None] * (np.eye(3) - proj)


def _sweep_inputs(axis, grid, restarts: int, seed: int):
    """Unit axis, grid (default `dephasing_grid()`) and one channel matrix per point.

    The axis is normalized here, once, by `_unit_axis`, as `BlochMap` does;
    the matrices and `quantum._game`'s start along the axis use that unit
    axis as it is.  Every input is checked here, before any work: the grid
    must be a nonempty flat list of real numbers (no bool or string), and
    each point is range-checked.
    """
    axis = _unit_axis(axis)
    arr = read_reals("a dephasing grid point", dephasing_grid() if grid is None else grid)
    if arr.ndim != 1:
        raise InvalidInputError(f"the dephasing grid must be a flat list, got shape {arr.shape}")
    if not arr.size:
        raise InvalidInputError("the dephasing grid is empty")
    grid = tuple(float(g) for g in arr)
    dmats = _dephasing_matrices(grid, axis)
    check_budget(restarts, _MAX_ITERS, seed)
    return axis, grid, dmats


def dephasing_sweep(
    fset: FunctionSet,
    axis=DEFAULT_AXIS,
    grid=None,
    restarts: int = 8,
    seed: int = 0,
) -> SweepResult:
    """Re-optimized quantum value across dephasing strengths (default `dephasing_grid()`).

    Every grid point is optimized with its channel in the objective, and
    all points share one batched see-saw call per round
    (`quantum._solve_points`).  The first round runs each point's
    `quantum._pm_starts` set (`restarts` random starts at the first point
    and one elsewhere, seeded from seed + point index),
    with the classical starts along z and along the dephasing axis, which
    the channel never damps.  Later rounds restart each point from a
    neighbour's improved optimum when that start comes within 1e-4 of the
    point's best, until no point improves.  The classical optimum is
    searched once per sweep.
    """
    axis, grid, dmats = _sweep_inputs(axis, grid, restarts, seed)
    game = _game(fset, axis)
    values = _solve_points(game, dmats, restarts, seed).values
    return SweepResult(grid, tuple(float(v) for v in values), game.classical)


# Sets that tie exactly differ in the last bits of their values (sums of m*k
# norms in set-dependent orders): on the default grid, by 1 ulp at most among
# the width-3 representative pairs on the x, z and oblique axes (k=4:xor-closed
# and k=3, oblique axis).  4 leaves room for that spread to grow with m*k.
_LEAD_ULPS = 4


def _leads(values_a, values_b):
    """Where values_a beats values_b by more than _LEAD_ULPS ulps of the larger in magnitude."""
    scale = np.spacing(np.maximum(np.abs(values_a), np.abs(values_b)))
    return values_a - values_b > _LEAD_ULPS * scale


def crossing_window(
    set_a: FunctionSet,
    set_b: FunctionSet,
    axis=DEFAULT_AXIS,
    grid=None,
    restarts: int = 8,
    seed: int = 0,
) -> tuple[float, float]:
    """Maximal interval of 1-lambda where set_a's optimized value exceeds set_b's.

    Both dephasing sweeps run on a common, strictly increasing grid (default
    `dephasing_grid()`); set_a leads at a point where it beats set_b by more
    than rounding (`_leads`), so a tie up to the last bits is no lead, and the
    first widest run of leads in lambda is the window.  Each end interior to
    the grid is refined to REFINE_TOL = 1e-4 (in lambda) by rounds of
    8-section search.  Round j halves the bracket's cells three times (fewer
    once a cell is within REFINE_TOL), so each new point is one bisection
    would probe, and solves the new points, ordered from the inside, as one
    sweep per set (`quantum._solve_points`) seeded seed + 7919 j (plus one
    for set_b).  The next bracket is the first cell from the inside whose far
    end set_a does not lead, else the last cell.  A round runs only while its
    bracket is wider than REFINE_TOL, so its cells are at least REFINE_TOL/2
    wide, far above the spacing of doubles in [0, 1/2], and each next bracket
    is a strict sub-cell.  Raises NoCrossing when either curve dominates the
    whole grid (or they tie everywhere).
    """
    axis, grid, dmats = _sweep_inputs(axis, grid, restarts, seed)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError(f"a crossing window needs a strictly increasing grid, got {grid}")
    game_a, game_b = _game(set_a, axis), _game(set_b, axis)
    positive = _leads(
        _solve_points(game_a, dmats, restarts, seed).values,
        _solve_points(game_b, dmats, restarts, seed).values,
    )
    if not positive.any():
        raise NoCrossingError("the second set dominates (or ties) everywhere on the grid")
    if positive.all():
        raise NoCrossingError("the first set dominates everywhere on the grid")

    # longest run (in lambda) of consecutive grid points where A leads B; the first on a tie
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

    def refine(inside_i, outside_i):
        inside, outside = grid[inside_i], grid[outside_i]
        j = 0
        while abs(outside - inside) > REFINE_TOL:
            pts = [inside, outside]
            while len(pts) <= _SECTIONS and abs(pts[1] - pts[0]) > REFINE_TOL:
                pts = [p for a, b in zip(pts, pts[1:]) for p in (a, 0.5 * (a + b))] + [outside]
            dmats = _dephasing_matrices(pts[1:-1], axis)
            j += 1
            positive = _leads(
                _solve_points(game_a, dmats, restarts, seed + 7919 * j).values,
                _solve_points(game_b, dmats, restarts, seed + 7919 * j + 1).values,
            )
            k = len(positive) if positive.all() else int(positive.argmin())
            inside, outside = pts[k], pts[k + 1]
        return 0.5 * (inside + outside)

    lam_lo = grid[lo_i] if lo_i == 0 else refine(lo_i, lo_i - 1)
    lam_hi = grid[hi_i] if hi_i == len(grid) - 1 else refine(hi_i, hi_i + 1)
    return (1.0 - lam_hi, 1.0 - lam_lo)
