"""Qubit prepare-and-measure optimization in Bloch-vector form.

Alice sends the pure state with Bloch vector r_x, Bob measures along v_y and
guesses the parity from the outcome sign.  The average success is

    s = 1/2 + (1/(2 m k)) sum_{x,y} g_y(x) (Lam r_x) . v_y

with g_y(x) = (-1)^{f_y(x)} and Lam an optional linear channel on the
prepared states.  The see-saw alternation (both half-steps closed form)
lower-bounds the optimum.  The 1/2(1+1/sqrt(k)) bound caps it: every width-3
set but the open quadruple attains the cap, and 8 width-4 classes fall short.

The cap is Cauchy-Schwarz on s = 1/2 + (1/(2 m k)) sum_x |Lam^T V_x|, with
V_x = sum_y g_y(x) v_y: a channel is a contraction, so each term is at most
|V_x|, and unit v_y give sum_x |V_x|^2 = m k (`norm_cancellation_check`),
so sum_x |V_x| <= m sqrt(k).  Through an orthogonal Lam it is met exactly
when every |V_x|^2 = k.  A value that reaches it, through any channel, is
therefore a global optimum, a stronger certificate than the local one of
`_seesaw.certificate`; `_meets_bound` is that value test, up to
_BOUND_ULPS = 4 ulps of rounding, and `seesaw` reports it as meets_bound.
`_solve_points` uses it as a snap in a one-point solve whose channel is
orthogonal: _SNAP_AFTER = 2 see-saw trips on its cold rows, then
Gauss-Newton steps of its _SNAP_ROWS = 4 best rows onto every
|V_x|^2 = k (`_seesaw.snap`).  A snapped row is accepted by the value
test alone, which by itself proves it optimal, and the solve is then
done once `_seesaw.polish` has finished that row: its other rows stop
after their 2 trips.  Through a channel that shrinks some direction,
only a strategy whose every V_x keeps its length under Lam^T can meet
the cap, which the snap's residuals do not ask for, so such a solve
skips the snap.

A Sidon set, one whose pairwise sums y ^ y' of labels are all distinct
(`_is_sidon`), cannot meet the cap with unit v_y in R^N (3, or 5 in
`grac.eacc`) once k > N, so its solves skip the snap too.  Proof: |V_x|^2 =
k + 2 sum_{y<y'} (-1)^{x.(y^y')} v_y . v_y', and the characters x ->
(-1)^{x.z} are linearly independent, so every |V_x|^2 = k forces, for each
z, the Gram entries v_y . v_y' of the pairs with y ^ y' = z to sum to 0.  In
a Sidon set each z is the sum of at most one pair, so the k unit v_y would
be orthonormal, which R^N does not allow for k > N.  A snap could only be
refused there, and a refused snap leaves the arrays bit for bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ._seesaw import (
    _TOL,
    SeesawReport,
    _best_per_point,
    _unit_rows,
    best_reply,
    certificate,
    check_budget,
    polish,
    run_seesaw,
    snap,
)
from .classical import ENUM_MAX_WIDTH, Rational, classical_optimum
from .errors import InvalidInputError, WidthMismatchError, check_integer, read_reals, reading
from .mubs import FunctionSet, _check_width, bitstring, read_bitstring, sign_matrix

_UNIT_TOL = 1e-12
_MAX_ITERS = 10000  # the see-saw's default budget, also used by `_solve_points`
_Z_AXIS = (0.0, 0.0, 1.0)  # every prepare-and-measure solve runs a classical start along it


def _channel_matrix(channel) -> np.ndarray:
    """Accept None, a finite 3x3 qubit channel matrix, or anything whose .matrix() returns one.

    A 3x3 matrix with no translation is a unital map.  It is a channel when
    it keeps the Bloch ball (no singular value above 1) and is completely
    positive: its signed singular values l1, l2, l3, the determinant's sign
    on the smallest, lie in the tetrahedron 1 + l1 + l2 + l3,
    1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3 >= 0 (Fujiwara and
    Algoet 1999; King and Ruskai 2001), which the contraction -I leaves.
    Both checks allow the _UNIT_TOL that a unit vector's norm may miss 1 by:
    dephasing maps sit on a face of the tetrahedron.
    """
    if channel is None:
        return np.eye(3)
    if hasattr(channel, "matrix"):
        channel = channel.matrix()
    mat = read_reals("a channel matrix entry", channel)
    if mat.shape != (3, 3):
        raise InvalidInputError(f"channel matrix must be 3x3, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise InvalidInputError(f"channel matrix must be finite, got {mat.tolist()!r}")
    signed = np.linalg.svd(mat, compute_uv=False)
    if signed[0] > 1.0 + _UNIT_TOL:
        raise InvalidInputError(
            "channel matrix must map the Bloch ball into itself, "
            f"got largest singular value {float(signed[0])!r}"
        )
    if np.linalg.det(mat) < 0:
        signed[2] = -signed[2]
    corners = 1.0 + np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) @ signed
    if corners.min() < -_UNIT_TOL:
        raise InvalidInputError(
            "channel matrix is not completely positive: its signed singular values "
            f"{signed.tolist()!r} leave the unital-qubit tetrahedron"
        )
    return mat


def _finite_vector(vec, what: str, coordinate: str) -> tuple[np.ndarray, float]:
    """`vec` as a finite real 3-vector and its norm, inf when the norm overflows.

    `what` names the vector and `coordinate` one of its entries in a refusal.
    """
    arr = read_reals(coordinate, vec)
    if arr.shape != (3,):
        raise InvalidInputError(f"{what} must be a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} must be finite, got {arr.tolist()!r}")
    with np.errstate(over="ignore"):
        return arr, float(np.linalg.norm(arr))


def _as_unit(vec, what: str) -> tuple[float, float, float]:
    arr, norm = _finite_vector(vec, what, f"a coordinate of {what}")
    if abs(norm - 1.0) > _UNIT_TOL:
        raise InvalidInputError(f"{what} must be unit norm, got |v| = {norm!r}")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


def _unit_axis(axis) -> tuple[float, float, float]:
    """A finite nonzero 3-vector, divided by its norm.

    A vector whose norm overflows or nears underflow is first divided by
    its largest |entry|; every other vector is divided by its plain norm.
    """
    arr, norm = _finite_vector(axis, "axis", "an axis coordinate")
    if not 1e-12 <= norm < np.inf:
        scale = np.abs(arr).max()
        if scale == 0:
            raise InvalidInputError("axis must be nonzero")
        arr = arr / scale
        norm = float(np.linalg.norm(arr))
    return (float(arr[0] / norm), float(arr[1] / norm), float(arr[2] / norm))


@dataclass(frozen=True)
class PMStrategy:
    """Prepare-and-measure strategy: one unit Bloch vector per input and label."""

    n: int
    preparations: dict[int, tuple[float, float, float]]
    measurements: dict[int, tuple[float, float, float]]

    def __post_init__(self) -> None:
        _check_width(self.n)
        m = 1 << self.n
        if set(self.preparations) != set(range(m)):
            raise InvalidInputError(f"preparations must cover all {m} inputs")
        if not set(self.measurements) <= set(range(1, m)):
            raise InvalidInputError(f"measurement labels must be nonzero {self.n}-bit values")
        prep = {x: _as_unit(vec, f"preparation {x}") for x, vec in self.preparations.items()}
        meas = {r: _as_unit(vec, f"measurement {r}") for r, vec in self.measurements.items()}
        object.__setattr__(self, "preparations", prep)
        object.__setattr__(self, "measurements", meas)

    def prep_array(self) -> np.ndarray:
        m = 1 << self.n
        return np.array([self.preparations[x] for x in range(m)])

    def meas_array(self, fset: FunctionSet) -> np.ndarray:
        try:
            return np.array([self.measurements[lab.r] for lab in fset])
        except KeyError as exc:
            raise InvalidInputError(f"strategy has no measurement for label {exc.args[0]}")

    def to_dict(self) -> dict:
        return {
            "preparations": {
                bitstring(x, self.n): list(vec) for x, vec in sorted(self.preparations.items())
            },
            "measurements": {
                bitstring(r, self.n): list(vec) for r, vec in sorted(self.measurements.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PMStrategy":
        with reading("prepare-and-measure strategy"):
            if not d["preparations"]:
                raise InvalidInputError("preparations must not be empty")
            n = len(next(iter(d["preparations"])))
            preps = {read_bitstring(b, n): v for b, v in d["preparations"].items()}
            meas = {read_bitstring(b, n): v for b, v in d["measurements"].items()}
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
    check_integer("cardinality", k)
    if k < 1:
        raise InvalidInputError(f"cardinality must be positive, got {k}")
    return 0.5 * (1.0 + 1.0 / math.sqrt(k))


def norm_cancellation_check(fset: FunctionSet, measurements) -> float:
    """sum_x ||sum_y g_y(x) v_y||^2 for rows v_y in set order; 2^n*k for unit v_y.

    Cross terms vanish because distinct parities agree on exactly half the
    inputs, so only the k diagonal ||v_y||^2 = 1 terms survive each x.
    """
    big_v = sign_matrix(fset) @ np.asarray(measurements, dtype=np.float64)
    return float(np.einsum("xc,xc->", big_v, big_v))


class _Game(NamedTuple):
    """A set's sign matrix, its classical optimum and classical starts from one
    exact search, and whether its labels form a Sidon set (`_is_sidon`)."""

    signs: np.ndarray
    classical: Rational | None  # None for a wide game (`_game`), which has no starts
    starts: tuple[np.ndarray, ...]  # along z, then along the game's axis if it has one
    sidon: bool


def _game(fset: FunctionSet, axis=None, wide=False) -> _Game:
    """The one exact classical search of a prepare-and-measure solve.

    One optimal strategy is embedded as antipodal measurement vectors along
    z and, when an axis is given, along that axis too: with preparations
    (-1)^{ω(x)} a and measurements (-1)^{d_y} a along an axis a, the guess
    sign reproduces the best message-flip decoding, so seeding the see-saw
    with these vectors floors it at the classical optimum (the axis matters
    under dephasing: vectors along the dephasing axis survive).  A bad axis
    is refused before the search, and the search refuses widths above
    ENUM_MAX_WIDTH, where a wide game has no search, classical optimum or
    classical start.
    """
    axes = [np.array(_unit_axis(a)) for a in (_Z_AXIS,) + (() if axis is None else (axis,))]
    s_c, starts = None, ()
    if fset.n <= ENUM_MAX_WIDTH or not wide:
        s_c, strategies = classical_optimum(fset, max_strategies=1)
        guess = np.array([1.0 if strategies[0].decode(lab.r, 0) == 0 else -1.0 for lab in fset])
        starts = tuple(np.outer(guess, a) for a in axes)
    return _Game(sign_matrix(fset), s_c, starts, _is_sidon(fset.ints))


def _is_sidon(labels) -> bool:
    """Whether the pairwise sums y ^ y' of distinct labels are all distinct."""
    sums = [a ^ b for a, b in combinations(labels, 2)]
    return len(set(sums)) == len(sums)


def _pm_starts(k: int, restarts: int, seed: int, classical) -> np.ndarray:
    """Every prepare-and-measure start set: an (R, k, N) array of measurement vectors.

    First `restarts` sphere-uniform starts, drawn in one
    np.random.default_rng(seed) array of shape (restarts, k, N), so the
    first r starts are the same for any restarts >= r, then the classical
    starts, a (c, k, N) array that sets N.  A row too short to have a
    direction becomes the last axis, z in R^3.
    """
    dim = np.shape(classical)[-1]
    draws = np.random.default_rng(seed).standard_normal((restarts, k, dim))
    units, _ = _unit_rows(draws, np.eye(dim)[-1])
    return np.concatenate((units, classical))


_WARM_MARGIN = 1e-4  # a neighbour's optimum reruns at a point only if it starts this close
_SNAP_AFTER = 2  # see-saw trips of a noiseless one-point solve's cold rows before the snap
_SNAP_ROWS = 4  # its best rows after those trips, which `_seesaw.snap` tries
_BOUND_ULPS = 4  # a value this many ulps below pm_upper_bound(k) meets it (`_meets_bound`)


def _meets_bound(values, k: int) -> np.ndarray:
    """Where values reach pm_upper_bound(k) up to _BOUND_ULPS ulps of rounding.

    No one-qubit strategy beats the bound through any channel (each is a
    contraction), so this value test alone certifies a global optimum.
    """
    bound = pm_upper_bound(k)
    return np.asarray(values) >= bound - _BOUND_ULPS * np.spacing(bound)


def _solve_points(
    game: _Game, dmats: np.ndarray, restarts: int, seed: int, max_iters=_MAX_ITERS
) -> tuple[np.ndarray, ...]:
    """`run_seesaw`'s six arrays at each N x N channel of dmats, one row per point: its best row.

    Every one-qubit prepare-and-measure solve is this call: `seesaw` and a
    depolarizing threshold are one point, a dephasing sweep is its grid and
    a window's refinement round the points inside its bracket, all points
    batched into one kernel call per round, which is told each row's point
    so that its Newton hand-off ranks rows point by point.  Round one runs, at each point
    i, the `_pm_starts` set of `restarts` random starts at the first point
    and one elsewhere, seeded seed + i, and the game's zero-padded starts.
    Each later round restarts every point from the new best of each
    neighbour that improved (by more than the kernel's stopping tolerance
    `_seesaw._TOL`) in the round before, keeping only the rows whose start
    scores, with Alice's best reply at that point's channel, within
    _WARM_MARGIN of the point's best, until no point improves; a lone point has no neighbour.  Each round hands the new
    best row of every point it improved to `_seesaw.polish`, the kernel's
    Newton finish within what is left of max_iters, so a point's first round
    is the one-point solve of its starts.

    A one-point call whose channel is orthogonal within _UNIT_TOL, which is
    `seesaw` without noise and the noiseless solve of a depolarizing
    threshold, first tries the snap (module docstring): its cold rows run
    _SNAP_AFTER trips in one kernel call, and their _SNAP_ROWS best, ties
    going to the lower row, take `_seesaw.snap`'s steps within what is left
    of max_iters; the snap is skipped when max_iters leaves no room for a
    step, and for a Sidon set with k > N, which cannot meet the bound.  A
    snapped row is accepted only when `_meets_bound` passes on its value at
    the point's own channel; between accepted rows a residual at rounding
    decides before the value does.  The call then hands that row
    to `_seesaw.polish`, as a round does its new best, and returns it,
    converged, with trips, snap steps and Newton steps as iterations and
    their gains folded into min_deltas, and its other rows stop.  When no
    row is accepted the call runs as if no snap were tried, from the same
    cold starts, so a set short of the bound gets the same arrays, bit for
    bit.
    A call of several points never snaps: its batch runs until its slowest
    point is done, so ending one point early saves almost nothing, while
    the snap's own kernel call and steps, up to 3 ms, made 11-point sweeps
    7% to 16% slower.
    """
    signs = game.signs
    (m, k), (n_points, dim, _) = signs.shape, dmats.shape
    classical = np.zeros((len(game.starts), k, dim))  # the game's starts, zero-padded
    classical[..., :3] = np.reshape(game.starts, (-1, k, 3))
    owner, starts = [], []
    for i in range(n_points):
        cold = _pm_starts(k, restarts if i == 0 else 1, seed + i, classical)
        owner += [i] * len(cold)
        starts.append(cold)
    owner, starts = np.array(owner), np.concatenate(starts)
    off = np.abs(dmats[0].T @ dmats[0] - np.eye(dim)).max()  # how far from orthogonal
    short = k > dim and game.sidon  # proved short of the bound (module docstring)
    if n_points == 1 and off <= _UNIT_TOL and max_iters > _SNAP_AFTER and not short:
        trips = run_seesaw(signs, dmats[owner], starts, _SNAP_AFTER, _TOL, owner)
        top = _best_per_point(np.arange(len(owner)), trips[0], owner, _SNAP_ROWS)
        snapped = snap(signs, dmats[owner[top]], [row[top] for row in trips], max_iters)
        accepted = np.flatnonzero(_meets_bound(snapped[0], k))
        if accepted.size:
            # a row the snap took to rounding first, then the higher value, then the first
            j = max(accepted, key=lambda j: (snapped[5][j], snapped[0][j]))
            chosen = (*(row[j : j + 1] for row in snapped[:5]), np.ones(1, dtype=bool))
            return polish(signs, dmats, chosen, max_iters)
    best = (
        np.full(n_points, -np.inf),
        np.zeros(n_points, dtype=np.int64),
        np.zeros(n_points),
        np.zeros((n_points, m, dim)),
        np.zeros((n_points, k, dim)),
        np.zeros(n_points, dtype=bool),
    )
    best_value, best_v = best[0], best[4]  # updated in place with the rest of best
    points = np.arange(n_points)
    while True:
        rows = run_seesaw(signs, dmats[owner], starts, max_iters, _TOL, owner)
        before = best_value.copy()
        winner = np.zeros(n_points, dtype=np.int64)  # each point's best row this round
        for j, (i, value) in enumerate(zip(owner.tolist(), rows[0].tolist())):
            if value > best_value[i]:
                best_value[i], winner[i] = value, j
        new = np.flatnonzero(best_value > before)
        if new.size:
            polished = polish(signs, dmats[new], [row[winner[new]] for row in rows], max_iters)
            for mine, theirs in zip(best, polished):
                mine[new] = theirs
        improved = best_value - before > _TOL  # smaller gains are the kernel's own convergence noise
        # point i + 1 restarts from point i's new best, and point i from point i + 1's
        owner = np.concatenate((points[1:][improved[:-1]], points[:-1][improved[1:]]))
        source = np.concatenate((points[:-1][improved[:-1]], points[1:][improved[1:]]))
        starts = best_v[source]
        _, start_values = best_reply(signs, dmats[owner], starts, np.zeros(dim))
        near = start_values >= best_value[owner] - _WARM_MARGIN
        if not near.any():
            return best
        owner, starts = owner[near], starts[near]


def _safe_unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm < 0.5:  # never left its zero initialization; direction is free (last axis)
        return np.eye(len(vec))[-1]
    return vec / norm


def seesaw(
    fset: FunctionSet,
    restarts: int = 64,
    max_iters: int = _MAX_ITERS,
    seed: int = 0,
    channel=None,
) -> SeesawReport:
    """Maximize the average success over one-qubit strategies by alternation.

    One `_solve_points` call at the channel, on `restarts` sphere-uniform
    starts and, up to width ENUM_MAX_WIDTH, the classical start along z.
    The report carries the best row's `certificate`: its tangent-gradient
    max-norm and top non-gauge Hessian eigenvalue (None where there is
    none), and meets_bound, the global certificate: whether the value
    reaches pm_upper_bound(k) within _BOUND_ULPS ulps (`_meets_bound`).
    """
    check_budget(restarts, max_iters, seed)
    dmat = _channel_matrix(channel)[None]
    game = _game(fset, wide=True)
    value, iters, min_delta, r, v, conv = _solve_points(game, dmat, restarts, seed, max_iters)
    grad, eig = certificate(game.signs, dmat, r, v)
    m = 1 << fset.n
    strategy = PMStrategy(
        fset.n,
        {x: _safe_unit(r[0, x]) for x in range(m)},
        {lab.r: _safe_unit(v[0, j]) for j, lab in enumerate(fset)},
    )
    return SeesawReport(
        value=float(value[0]),
        iterations=int(iters[0]),
        restarts_used=restarts + len(game.starts),
        converged=bool(conv[0]),
        best_strategy=strategy,
        seed=seed,
        min_step_delta=float(min_delta[0]),
        tangent_grad=float(grad[0]),
        top_hessian_eig=None if np.isnan(eig[0]) else float(eig[0]),
        meets_bound=bool(_meets_bound(value[0], len(fset))),
    )
