"""Shared see-saw driver, its report, and the one-qubit kernel built on it.

Both optimizers alternate closed-form half-steps over a batch of restarts,
so neither half-step can lower the objective.  `alternate` is the one loop
that runs them: it keeps per-restart values, iteration counts, the smallest
half-step improvement and convergence, and freezes a restart once its
improvement over a full step falls below tol.  A frozen restart is no longer
stepped: the half-steps see only the rows still running, so they must not
capture the batch size, and per-row constants ride in the state.  Each row's
final state lands in the caller's arrays when that row freezes.
`run_seesaw` (prepare and measure) and `grac.eacc.eacc_seesaw`
(entanglement-assisted) supply only their half-steps, and both return a
`SeesawReport`.

Bloch-vector picture of the one-qubit kernel: with preparations r_x,
measurement vectors v_y and sign matrix g[x,y] = (-1)^{f_y(x)}, the average
success is

    s = 1/2 + (1/(2 m k)) * sum_x Lam(r_x) . sum_y g[x,y] v_y

where Lam(r) = D r is a (symmetric-free, general 3x3) channel acting on the
prepared states.  Each half-step is closed form: the optimal r_x points along
D^T V_x and the optimal v_y along sum_x g[x,y] D r_x.  These unit vectors
lie in R^N, N read from the arrays: 3, or 5 in `grac.eacc.eacc_optimum`.

The kernel adds a safeguarded extrapolated step to the plain alternation.
After Bob's best reply moves v to v_new, each row also tries
v_e = normalize(v + beta (v_new - v)), scores both points with Alice's best
reply, and keeps v_e only when it scores strictly higher.  The accepted
point is therefore never below the plain one, so no step goes downhill, and
at a fixed point v_e = v_new and the plain point is kept.  beta is per row
and adapts: it starts at 2, grows x1.5 when the candidate is taken and
halves, to no less than 1.25, when it is refused.  On slowly converging
rows this cuts the trips about threefold.  `grac.eacc.eacc_seesaw` takes the
same kind of step, with the same beta rule (`next_beta`), on its state and
effects.

Near a degenerate optimum the alternation still converges only linearly,
and one slow row holds up a whole batched call.  So `run_seesaw` gives each
row _NEWTON_AFTER trips; at every k, a row still running then goes on only
if it is among the _FINISH_ROWS best running rows of its point (the
caller's `owner` says which point a row solves), and stops there otherwise.
That is successive halving (Karnin, Koren and Somekh, ICML 2013) in one
round: at k = 7 to 12 about two thirds of the 65 rows of a `seesaw` call
are still running at trip 25, and only the best row of a point is
reported.  The hand-off comes early because the batch steps until its
slowest row is done: at 25 trips a pass of the benchmark's pm_sweep
workload takes 875 kernel loop trips and 11,077 row-trips, against 1,223
and 12,647 at 40, for 912 Newton row-steps against 781; at 20 trips a
k = 11 to 15 point lost 3.1e-11 of its best value.  Up to k = 10 a kept
row gets a second-order finish, `newton_finish`, the costly stage, which
takes saddle-free Riemannian Newton steps on (S^{N-1})^k (Absil, Mahony
and Sepulchre, "Optimization Algorithms on Matrix Manifolds", 2008, ch. 6;
Dauphin et al., "Identifying and attacking the saddle point problem",
NeurIPS 2014).  `tangent_model` gives the gradient
and Hessian of F(v) = sum_x |D^T V_x| in an (N-1)k-dimensional tangent basis;
a step divides by |eigenvalue|, drops null (gauge) directions and
backtracks so that no step lowers the value.  A row the finish converges
usually takes two to six steps and stops at a tangent gradient below
1e-10; a thin row (some |D^T V_x| < 1e-6, where F has no Hessian) and a
row the finish cannot converge go back to the see-saw for the rest of
max_iters, resuming exactly where their trips left off.  `polish` is the
finish's one entry point, for these rows and for the best row of each point
of `grac.quantum._solve_points`.  `certificate` reads the same model at a
point: its gradient max-norm and top non-gauge Hessian eigenvalue, which
certify a strict local maximum when the first is ~0 and the second negative.

`snap` is the other second-stage move, for the noiseless one-point solves
of `grac.quantum._solve_points` only: damped Gauss-Newton steps that take a
row onto the ceiling 1/2(1 + 1/sqrt(k)) (`grac.quantum`'s module
docstring).  Its step solves an (m + k)-square linear system, about 0.4 ms
at width 6 with `np.linalg.solve`, where `lstsq` on the m + k by 3k
Jacobian took 5.7 ms.  On the benchmark's width-4 census, the best rows
after 2 trips reach the ceiling within rounding in at most 8 steps (4 to 6
at k >= 11) when the set meets it, and stay at residuals of 1 or more
when it does not.

The finish eigendecomposes an (N-1)k-square matrix per row and step, so it
stays off above (N-1)k = _NEWTON_MAX_DIM = 20, k = 10 in R^3: there `polish`
returns its rows unchanged, and the rows kept at the hand-off go back to the
see-saw for the rest of max_iters, as a row the finish fails does.
Measured on 2 cores (numpy 2.4, OpenBLAS at its default two threads):
- trips: on the benchmark's width-4 census sample, run without the snap,
  the rows still running after 25 trips at k = 11 and 12 (37 to 45 of 65)
  need only 1 to 17 more trips.  Lifting the cap to (N-1)k = 24 made those
  4 solves take 37 ms against 24 ms (sum of best-of-5 times).  At k = 7
  to 10, where rows run up to 550 trips, the finish made most solves
  15-35% faster;
- eigh stalls above dimension 25, intermittently: numpy's eigh calls
  LAPACK syevd, which switches to divide and conquer there.  In 1 of 3
  in-process census passes with the cap lifted, eigh on (9, 26, 26)
  Hessian stacks took 0.14-0.15 s per call, about 16 ms per matrix, and
  about 15 ms on (1, 28, 28); the same captured stack, re-timed in that
  process, took about 1 ms, and the other two passes showed no stall.
  Without a stall one 26 x 26 to 28 x 28 eigh takes 0.11-0.13 ms.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, check_integer

if TYPE_CHECKING:
    from .eacc import EACCStrategy
    from .quantum import PMStrategy

_EPS = 1e-12  # vectors shorter than this keep their previous direction
_TOL = 1e-10  # every see-saw stops a restart whose trip gains less than this
_BETA_START = 2.0  # extrapolation factor of a fresh row
_BETA_GROW = 1.5  # beta multiplier after a taken candidate
_BETA_MIN = 1.25  # floor of beta after a refused candidate halves it
_NEWTON_AFTER = 25  # see-saw trips before the hand-off ranks the rows still running
_NEWTON_STEPS = 20  # Newton steps a row may take before it counts as failed
_FINISH_ROWS = 16  # running rows per point kept at the hand-off (`run_seesaw`)
_GRAD_DONE = 1e-10  # tangent-gradient max-norm of a converged row
_THIN = 1e-6  # a row with some |D^T V_x| below this is left to the see-saw
_NULL = 1e-9  # relative size below which a Hessian eigenvalue is null (`_non_null`)
_HALVINGS = 12  # the finish tries steps 1, 1/2, ..., 2**-(_HALVINGS - 1)
_NEWTON_MAX_DIM = 20  # largest tangent dimension (N-1)k the finish runs at (module docstring)
_SNAP_STEPS = 8  # Gauss-Newton steps `snap` may take per row
_SNAP_DAMP = 1e-8  # `snap`'s damping, relative to its normal matrix's mean diagonal
_SNAP_DONE = 1e-14  # `snap` stops a row whose residuals are all below this times k


def _turns(units: np.ndarray) -> np.ndarray:
    """turns[i, a] is units[a] acting on the N - 1 axes other than i, taken
    cyclically from i + 1: it maps v to a vector orthogonal to v, to e_i and
    to v's other turns, with the length of v less its e_i part (v x e_i at N = 3)."""
    base = np.pad(units, ((0, 0), (1, 0), (1, 0)))  # the units on the axes after axis 0
    return np.stack([np.roll(base, (i, i), axis=(1, 2)) for i in range(base.shape[-1])])


_MINUS_I = np.array([[0.0, 1.0], [-1.0, 0.0]])  # -i on C = R^2
# by N: the turns of -i on C, and of -i, -j and -k on H = R^4 (left multiplications)
_TURNS = {
    3: _turns(_MINUS_I[None]),
    5: _turns(np.stack([np.kron(np.eye(2), _MINUS_I), np.kron(_MINUS_I, np.diag([1.0, -1.0])),
                        np.kron(_MINUS_I, np.eye(2)[::-1])])),
}


@dataclass(frozen=True)
class SeesawReport:
    """Best restart of a see-saw run.

    tangent_grad and top_hessian_eig are the best restart's `certificate`
    where the optimizer computes them (the one-qubit `seesaw`), else None.
    meets_bound is whether the value reaches 1/2(1 + 1/sqrt(k)) within 4
    ulps, a global certificate: that ceiling caps one-qubit and, at every
    local dimension, entanglement-assisted strategies alike.  `seesaw` and
    `grac.eacc.eacc_optimum` set it; `eacc_seesaw` leaves it None.
    """

    value: float
    iterations: int
    restarts_used: int
    converged: bool
    best_strategy: PMStrategy | EACCStrategy
    seed: int
    min_step_delta: float
    tangent_grad: float | None = None
    top_hessian_eig: float | None = None
    meets_bound: bool | None = None


def check_budget(restarts: int, max_iters: int, seed: int) -> None:
    """Reject a see-saw budget that cannot run, then a seed that numpy's
    generator would refuse or silently truncate."""
    check_integer("restarts", restarts)
    check_integer("max_iters", max_iters)
    if restarts < 1:
        raise InvalidInputError("need at least one restart")
    if max_iters < 1:
        raise InvalidInputError("need at least one iteration")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")


def next_beta(beta, take):
    """Each row's beta after a trip: x_BETA_GROW if its candidate was taken, else
    halved to no less than _BETA_MIN."""
    return np.maximum(beta * np.where(take, _BETA_GROW, 0.5), _BETA_MIN)


def alternate(step, state, max_iters, tol, start=None):
    """Iterate step over a batch of restarts until every restart converges.

    Only restarts still running are stepped.  The loop keeps the caller
    index of each running row and a compacted working copy of their state.
    On an iteration where some row freezes, it writes the frozen rows' final
    state, value, iteration count, smallest half-step improvement and
    convergence into the caller's arrays, then drops them from the working
    copy; other iterations do no indexing.  The batch that step sees
    therefore shrinks: step must not capture the batch size, and a
    per-restart constant must be one of the state arrays (step returns it
    unchanged) so that it shrinks with the rows it belongs to.

    Parameters
    ----------
    step : callable taking the arrays of state, returning (new_state, halves):
        new arrays in the same order (the arguments must not be written)
        and the objective of each row after each half-step
    state : tuple of arrays with one leading row per restart; each row
        receives its restart's final state when the restart freezes
    max_iters : iteration cap, shared or one positive cap per restart
    tol : freeze a restart once its per-iteration improvement drops below tol;
        the see-saws pass _TOL
    start : (R,) objective of each row's starting state, when the run resumes
        rows that have already stepped; the first iteration's improvement is
        measured from it (from -1 when not given)

    Returns
    -------
    values : (R,) final objective per restart
    iters : (R,) iterations actually used
    min_deltas : (R,) smallest half-step improvement seen (monotonicity check)
    converged : (R,) bool, False for restarts still running at their cap
    """
    n_restarts = state[0].shape[0]
    values = np.full(n_restarts, -1.0)
    min_deltas = np.full(n_restarts, np.inf)
    iters = np.zeros(n_restarts, dtype=np.int64)
    converged = np.zeros(n_restarts, dtype=bool)

    rows = np.arange(n_restarts)  # caller index of each working row
    caps = np.broadcast_to(np.asarray(max_iters, dtype=np.int64), (n_restarts,))
    next_cap = caps.min()
    work = tuple(state)
    value = values.copy() if start is None else np.array(start, dtype=np.float64)
    min_delta = min_deltas.copy()
    for it in range(1, int(caps.max()) + 1):
        work, halves = step(*work)
        step_min = halves[0] - value
        for before, after in zip(halves, halves[1:]):
            step_min = np.minimum(step_min, after - before)
        min_delta = np.minimum(min_delta, step_min)
        done = halves[-1] - value < tol
        value = halves[-1]
        if not (it == next_cap or done.any()):
            continue
        freeze = done | (caps == it)
        dest = rows[freeze]
        for arr, new in zip(state, work):
            arr[dest] = new[freeze]
        values[dest] = value[freeze]
        min_deltas[dest] = min_delta[freeze]
        iters[dest] = it
        converged[dest] = done[freeze]
        keep = ~freeze
        if not keep.any():
            break
        rows = rows[keep]
        caps = caps[keep]
        next_cap = caps.min()
        work = tuple(arr[keep] for arr in work)
        value = value[keep]
        min_delta = min_delta[keep]

    return values, iters, min_deltas, converged


def _unit_rows(x, fallback):
    """Rows of x scaled to unit length, their lengths, and fallback where short."""
    norms = np.sqrt(np.einsum("...c,...c->...", x, x))[..., None]
    short = norms <= _EPS
    if short.any():
        return np.where(short, fallback, x / np.where(short, 1.0, norms)), norms
    return x / norms, norms


def best_reply(signs, dmat, v, r):
    """Alice's best reply to measurement vectors v, and its score, per row.

    dmat is (N, N) or one matrix per row; rows of r are kept where the reply
    has no direction.
    """
    m, k = signs.shape
    scale = 1.0 / (2.0 * m * k)
    u = np.matmul(np.matmul(signs, v), dmat)  # rows hold D^T V_x
    r_new, norms = _unit_rows(u, r)
    return r_new, 0.5 + scale * norms.sum(axis=(-2, -1))


def _slope(signs, dmat, r, v):
    """First-order half of `tangent_model`: Alice's best reply r to v, the
    lengths |D^T V_x|, q_x = D r_x, w_y = sum_x g[x,y] q_x, each v_y's
    tangent basis and the tangent gradient."""
    n_rows, _, dim = v.shape
    r, norms = _unit_rows(np.matmul(np.matmul(signs, v), dmat), r)
    q = np.matmul(r, dmat.transpose(0, 2, 1))
    w = np.matmul(signs.T, q)
    # each v_y's basis: the coordinate axis it is least aligned with, then its turns
    near = np.argmin(np.abs(v), axis=-1)
    axis = np.eye(dim)[near]
    along = np.sum(axis * v, axis=-1, keepdims=True)
    scale = 1.0 / np.sqrt(1.0 - along * along)
    turned = np.matmul(_TURNS[dim][near], v[..., None, :, None])[..., 0]
    basis = np.concatenate(
        (((axis - along * v) * scale)[..., None, :], turned * scale[..., None]), axis=-2
    )
    grad = np.matmul(basis, w[..., None]).reshape(n_rows, -1)
    return r, norms, q, w, basis, grad


def _curvature(signs, dmat, v, norms, q, w, basis):
    """Second-order half of `tangent_model`: the tangent Hessian."""
    n_rows, k, tangent, dim = basis.shape
    flat = basis.reshape(n_rows, tangent * k, dim)
    inv = 1.0 / np.maximum(norms, _THIN)
    c = np.repeat(np.repeat(np.matmul(signs.T, signs * inv), tangent, axis=1), tangent, axis=2)
    bd = np.matmul(flat, dmat)
    p = np.matmul(flat, q.transpose(0, 2, 1)) * np.repeat(signs.T, tangent, axis=0)
    p *= np.sqrt(inv).transpose(0, 2, 1)
    hess = c * np.matmul(bd, bd.transpose(0, 2, 1)) - np.matmul(p, p.transpose(0, 2, 1))
    diag = np.arange(tangent * k)
    hess[:, diag, diag] -= np.repeat(np.sum(v * w, axis=-1), tangent, axis=1)
    return hess


def tangent_model(signs, dmat, r, v):
    """The objective's tangent gradient and Riemannian Hessian at each row's v.

    The objective is F(v) = sum_x |D^T V_x| with V_x = sum_y g[x,y] v_y, so
    s = 1/2 + F / (2 m k).  Each v_y gets an orthonormal tangent basis
    (b_y1, ..., b_y,N-1) from the axis it is least aligned with (`_turns`).  With
    Alice's best reply r_x = D^T V_x / |D^T V_x|, q_x = D r_x and
    w_y = sum_x g[x,y] q_x, the tangent gradient is b_ya . w_y, and the
    Hessian is B^T [sum_x g[x,y] g[x,z] D (I - r_x r_x^T) D^T / |D^T V_x|] B
    less (v_y . w_y) I on the diagonal blocks.  Its bracket splits into

        c_yz (D^T b_ya) . (D^T b_zb) - sum_x p_x,ya p_x,zb,

    with c = g^T diag(1/|D^T V_x|) g and p_x,ya = g[x,y] (b_ya . q_x) /
    sqrt|D^T V_x|, so the whole Hessian is three batched matmuls.  r holds
    the rows kept where D^T V_x vanishes.  A row with some |D^T V_x| < _THIN
    is thin: F has no Hessian there, and its entries are not to be read.

    Parameters
    ----------
    signs : (m, k) sign matrix
    dmat : (R, N, N) one channel matrix per row, N = 3 or 5 (`_turns`)
    r : (R, m, N) fallback preparations
    v : (R, k, N) unit measurement vectors

    Returns
    -------
    r : (R, m, N) Alice's best reply to v
    basis : (R, k, N - 1, N) the tangent basis, b_ya in basis[:, y, a]
    grad : (R, (N - 1) k) tangent gradient, coordinates (y, a) in row-major order
    hess : (R, (N - 1) k, (N - 1) k) tangent Hessian in the same coordinates
    thin : (R,) bool
    """
    r, norms, q, w, basis, grad = _slope(signs, dmat, r, v)
    hess = _curvature(signs, dmat, v, norms, q, w, basis)
    return r, basis, grad, hess, (norms < _THIN).any(axis=(1, 2))


def _non_null(lam, v, w):
    """Mask of the eigenvalues outside the null (gauge) directions.

    An eigenvalue is null when |lam| <= _NULL * max|lam|, or _NULL times the
    Hessian's own scale max_y |v_y . w_y| when that is larger, so that a
    Hessian that vanishes up to rounding is all null.
    """
    size = np.abs(lam)
    scale = np.maximum(size.max(axis=1), np.abs(np.sum(v * w, axis=-1)).max(axis=1))
    return size > _NULL * scale[:, None]


def certificate(signs, dmat, r, v):
    """Stationarity and curvature of each row: its tangent-gradient max-norm and
    its top non-gauge Hessian eigenvalue, from the model of `tangent_model`.

    Null directions (`_non_null`), such as the rotations that leave the
    objective unchanged, are skipped.  The eigenvalue is NaN on a thin row
    or when every direction is null.  A max-norm <= _GRAD_DONE with a
    negative eigenvalue certifies a strict local maximum up to those null
    directions; it is not a global certificate.
    """
    _, norms, q, w, basis, grad = _slope(signs, dmat, r, v)
    lam = np.linalg.eigvalsh(_curvature(signs, dmat, v, norms, q, w, basis))
    real = _non_null(lam, v, w) & ~(norms < _THIN).any(axis=(1, 2))[:, None]
    top = np.where(real, lam, -np.inf).max(axis=1)
    return np.abs(grad).max(axis=1), np.where(np.isfinite(top), top, np.nan)


def _climb(signs, dmat, r, v, value, move):
    """Each row's point v + t move, retracted to unit rows, with Alice's best reply
    and its score, for the largest t in 1, 1/2, ..., 2**-(_HALVINGS - 1) that
    scores strictly above value, or failing that the largest that ties it; a
    row that every t lowers gets a lower point (the caller keeps its old one)."""
    trial_v, _ = _unit_rows(v + move, v)
    trial_r, trial_value = best_reply(signs, dmat, trial_v, r)
    short = np.flatnonzero(~(trial_value > value))
    if short.size:
        sizes = 0.5 ** np.arange(_HALVINGS)[:, None, None, None]
        more_v, _ = _unit_rows(v[short] + sizes * move[short], v[short])
        more_r, more_value = best_reply(signs, dmat[short], more_v, r[short])
        raised, tied = more_value > value[short], more_value == value[short]
        pick = np.where(raised.any(axis=0), raised.argmax(axis=0), tied.argmax(axis=0))
        first = pick, np.arange(short.size)
        trial_v[short], trial_r[short], trial_value[short] = (
            more_v[first], more_r[first], more_value[first]
        )
    return trial_r, trial_v, trial_value


def newton_finish(signs, dmat, r, v, value, max_steps):
    """Saddle-free Riemannian Newton steps on rows (r, v) that score `value`.

    A step solves the tangent model of `tangent_model` through `eigh`,
    dividing by |lam| and dropping null directions (`_non_null`), so it
    climbs at a saddle as well as at a maximum.  The point
    moves by v_y <- normalize(v_y + t B_y xi_y) with the largest t in 1,
    1/2, ..., 2**-(_HALVINGS - 1) whose point, with Alice's best reply,
    scores at least as high, and stays put when there is none: no step
    lowers the value.  A step that only ties is taken unless the row's last
    step also only tied, so that a row whose gains have fallen below the
    value's rounding still drives its gradient down, but a row on a flat
    ridge does not wander along it.  A row converges when its tangent gradient's
    max-norm falls below _GRAD_DONE, and only then.  It fails when it is
    thin, when no step is taken, or when it is still stepping after
    max_steps steps.

    r, v and value are (R, m, N), (R, k, N) and (R,) arrays with r Alice's
    best reply to v; each row's last point is written into them.  dmat holds
    one channel matrix per row, and max_steps is one budget for every row or
    one per row.  Returns each row's step count, smallest step gain (inf if
    it took none) and convergence.  It runs at any k; `polish`, its one
    caller, keeps it to (N - 1) k <= _NEWTON_MAX_DIM; above that the rows
    `run_seesaw` hands off resume the see-saw instead.
    """
    n_rows, k, _ = v.shape
    steps = np.zeros(n_rows, dtype=np.int64)
    gains = np.full(n_rows, np.inf)
    converged = np.zeros(n_rows, dtype=bool)
    budget = np.broadcast_to(max_steps, (n_rows,))
    live = np.arange(n_rows)  # caller index of each working row
    d, r_l, v_l, value_l = dmat, r, v, value
    tied = np.zeros(n_rows, dtype=bool)  # the row's last step only tied
    for it in range(int(budget.max()) + 1):
        r_l, norms, q, w, basis, grad = _slope(signs, d, r_l, v_l)
        done = np.abs(grad).max(axis=1) < _GRAD_DONE
        thin = (norms < _THIN).any(axis=(1, 2))
        converged[live[done & ~thin]] = True
        go = ~(done | thin) & (budget[live] > it)
        if not go.any():
            break
        if not go.all():
            live, d, r_l, v_l, value_l = live[go], d[go], r_l[go], v_l[go], value_l[go]
            norms, q, w, basis, grad = norms[go], q[go], w[go], basis[go], grad[go]
            tied = tied[go]
        lam, vecs = np.linalg.eigh(_curvature(signs, d, v_l, norms, q, w, basis))
        keep = _non_null(lam, v_l, w)
        coef = np.matmul(grad[:, None, :], vecs)[:, 0] / np.where(keep, np.abs(lam), 1.0)
        xi = np.matmul(vecs, np.where(keep, coef, 0.0)[..., None])
        move = np.matmul(xi.reshape(len(live), k, 1, -1), basis)[..., 0, :]
        trial_r, trial_v, trial_value = _climb(signs, d, r_l, v_l, value_l, move)
        tie = trial_value == value_l
        took = (trial_value > value_l) | (tie & ~tied)
        rows = live[took]
        r[rows], v[rows] = trial_r[took], trial_v[took]
        gains[rows] = np.minimum(gains[rows], (trial_value - value_l)[took])
        value[rows] = trial_value[took]
        steps[rows] += 1
        if not took.any():
            break
        live, d, tied = rows, d[took], tie[took]
        r_l, v_l, value_l = trial_r[took], trial_v[took], trial_value[took]
    return steps, gains, converged


def polish(signs, dmat, rows, max_iters):
    """`newton_finish` on some rows of `run_seesaw`'s six arrays, at most
    _NEWTON_STEPS steps each within what is left of max_iters: the steps are
    added to iters, the gains folded into min_deltas and the convergence OR-ed
    in.  r, v and values are written in place.  Above (N - 1) k =
    _NEWTON_MAX_DIM rows pass as given, and `run_seesaw` resumes their trips."""
    values, iters, min_deltas, r, v, converged = rows
    if (v.shape[2] - 1) * v.shape[1] > _NEWTON_MAX_DIM:
        return rows
    budget = np.minimum(_NEWTON_STEPS, max_iters - iters)
    steps, gains, finished = newton_finish(signs, dmat, r, v, values, budget)
    return values, iters + steps, np.minimum(min_deltas, gains), r, v, converged | finished


def snap(signs, dmat, rows, max_iters):
    """Damped Gauss-Newton steps of some rows of `run_seesaw`'s six arrays onto
    the ceiling 1/2(1 + 1/sqrt(k)), at most _SNAP_STEPS each within what is
    left of max_iters, then Alice's best reply at each row's orthogonal
    channel dmat.

    The ceiling is met exactly when every |V_x|^2 = k with unit v_y, where
    V_x = sum_y g[x,y] v_y (module docstring of `grac.quantum`), so each step
    moves v toward a zero of the m + k residuals |V_x|^2 - k and
    |v_y|^2 - 1.  With J their Jacobian in v's N k coordinates, the step is
    the minimum-norm one, -J^T (J J^T + mu I)^-1 res, through the
    (m + k)-square normal equations: their blocks are
    4 (g g^T)[x,x'] V_x . V_x', 4 g[x,y] V_x . v_y and 4 |v_y|^2 on the
    diagonal.  J J^T is singular whenever m + k exceeds the rank of J, which
    the common rotations of every v_y keep below N k, so mu is _SNAP_DAMP
    times its mean diagonal.  A row stops once its largest residual is below
    _SNAP_DONE times k, at rounding.  Then v is normalized and scored with
    Alice's best reply.  Returns the six arrays with the scores as values,
    the steps added to iters, the score less the row's value folded into
    min_deltas, and in place of converged whether the row's residuals
    reached rounding.  Nothing here checks the score: the caller accepts a
    row by its value.
    """
    values, iters, min_deltas, r, v0, _ = rows
    m, k = signs.shape
    v = v0.copy()
    steps = np.zeros(len(v), dtype=np.int64)
    budget = np.minimum(_SNAP_STEPS, max_iters - iters)
    gram_g = np.matmul(signs, signs.T)
    diag = np.arange(m + k)
    for it in range(_SNAP_STEPS + 1):
        big = np.matmul(signs, v)  # rows hold V_x
        norms = np.einsum("ryc,ryc->ry", v, v)
        res = np.concatenate((np.einsum("rxc,rxc->rx", big, big) - k, norms - 1.0), axis=1)
        done = np.abs(res).max(axis=1) <= _SNAP_DONE * k
        live = ~done & (budget > it)
        if not live.any():
            break
        big, v_l, res = big[live], v[live], res[live]
        normal = np.empty((len(big), m + k, m + k))
        normal[:, :m, :m] = gram_g * np.matmul(big, big.transpose(0, 2, 1))
        normal[:, :m, m:] = signs * np.matmul(big, v_l.transpose(0, 2, 1))
        normal[:, m:, :m] = normal[:, :m, m:].transpose(0, 2, 1)
        normal[:, m:, m:] = np.eye(k) * norms[live][:, :, None]
        normal *= 4.0
        normal[:, diag, diag] += _SNAP_DAMP * np.trace(normal, axis1=1, axis2=2)[:, None] / (m + k)
        y = np.linalg.solve(normal, res[..., None])
        # v - J^T y, where J^T y = 2 sum_x g[x,y] y_x V_x + 2 y_y v_y
        v[live] = v_l - 2.0 * (np.matmul(signs.T, y[:, :m] * big) + y[:, m:] * v_l)
        steps[live] += 1
    v, _ = _unit_rows(v, v0)
    r, score = best_reply(signs, dmat, v, r)
    return score, iters + steps, np.minimum(min_deltas, score - values), r, v, done


def _best_per_point(rows, values, owner, count):
    """Those of rows that rank among their point's count best by value,
    ties going to the lower row; values and owner are aligned with rows, and
    the result ascends as rows do."""
    keep = np.ones(len(rows), dtype=bool)
    for point in np.flatnonzero(np.bincount(owner) > count):
        mine = np.flatnonzero(owner == point)
        # Python's sort is stable, so ties keep the lower row first; numpy's
        # sorts in its place raised the benchmark's peak RSS by 0.1-0.5 MB
        order = sorted(range(len(mine)), key=(-values[mine]).tolist().__getitem__)
        keep[mine[order[count:]]] = False
    return rows[keep]


def run_seesaw(signs, dmat, v0, max_iters, tol, owner=None):
    """Run batched one-qubit see-saw iterations with a safeguarded extrapolated step.

    Alice's best reply to v0 is taken before the first trip, so every trip
    starts from a pair (r, v) with r optimal for v.  A trip takes Bob's best
    reply v_new to r, then tries v_e = normalize(v + beta (v_new - v)) row by
    row.  Both v_new and v_e are scored with Alice's best replies r_new and
    r_e in one matmul, and a row keeps (r_e, v_e) only when it scores
    strictly higher than (r_new, v_new); the next trip starts from the
    winner, so Alice's half is not repeated.  A trip's halves are Bob's half, Alice's half and
    the winner, each at least the one before.  A row's beta starts at
    _BETA_START and moves by `next_beta`; it rides in the state so that it
    shrinks with the rows.  A shared channel is broadcast to one matrix per
    row at entry, and each row's channel and its contiguous transpose ride
    in the state too, so a row's arithmetic, and its result, do not depend
    on the batch.

    At every k, the rows still running after _NEWTON_AFTER trips are
    ranked at a hand-off: each point's _FINISH_ROWS best of them by value,
    ties going to the lower row, go to `polish`, and its other running rows
    stop there, with converged False.  A stopped row's value is no higher
    than any kept row's of its point, and the finish and the trips only
    raise values, so each point's best row is a kept row (or one that
    converged earlier).  A kept row the finish does not converge resumes
    its trips for the rest of max_iters; where (N - 1) k > _NEWTON_MAX_DIM
    `polish` passes its rows as given, so every kept row resumes.
    Iterations count trips plus Newton steps, and min_deltas takes in the
    Newton gains.

    Parameters
    ----------
    signs : (m, k) array of +-1 floats, g[x,y] = (-1)^{f_y(x)}
    dmat : (N, N) channel matrix acting on preparation Bloch vectors, shared
        by every row, or (R, N, N) with one matrix per row
    v0 : (R, k, N) or (k, N) initial measurement vectors, one row per restart
    max_iters : iteration cap per restart
    tol : stop a restart once its per-iteration improvement drops below tol
    owner : (R,) the point each row solves, for the hand-off's ranking; when
        not given each row is its own point, so no row is stopped and each
        row's result does not depend on the batch

    Returns
    -------
    values : (R,) final objective per restart
    iters : (R,) iterations actually used, trips plus Newton steps
    min_deltas : (R,) smallest half-step or Newton-step improvement seen
        (monotonicity check)
    rvecs : (R, m, N) final preparations
    vvecs : (R, k, N) final measurement vectors
    converged : (R,) bool, False for a row stopped at the hand-off
    """
    signs = np.ascontiguousarray(signs, dtype=np.float64)
    v = np.array(v0, dtype=np.float64, copy=True)
    if v.ndim == 2:
        v = v[None]
    n_restarts, k, dim = v.shape
    m = signs.shape[0]
    scale = 1.0 / (2.0 * m * k)
    signs_t = np.ascontiguousarray(signs.T)
    # copies: final channels are written back, and a transposed view slows every matmul
    dmat = np.array(np.broadcast_to(np.asarray(dmat, dtype=np.float64), (n_restarts, dim, dim)))
    dmat_t = np.ascontiguousarray(dmat.transpose(0, 2, 1))

    r, _ = best_reply(signs, dmat, v, np.zeros((n_restarts, m, dim)))
    beta = np.full(n_restarts, _BETA_START)

    def step(r, v, beta, d, d_t):
        w = np.matmul(signs_t, np.matmul(r, d_t))  # (R, k, N): sum_x g[x,y] D r_x
        v_new, wnorms = _unit_rows(w, v)
        value_bob = 0.5 + scale * wnorms.sum(axis=(1, 2))
        v_e, _ = _unit_rows(v + beta[:, None, None] * (v_new - v), v_new)
        both_r, both_value = best_reply(signs, d, np.stack((v_new, v_e)), r)
        take = both_value[1] > both_value[0]
        pick = take[:, None, None]
        beta = next_beta(beta, take)
        return (
            (np.where(pick, both_r[1], both_r[0]), np.where(pick, v_e, v_new), beta, d, d_t),
            (value_bob, both_value[0], np.maximum(both_value[0], both_value[1])),
        )

    state = (r, v, beta, dmat, dmat_t)
    values, iters, min_deltas, converged = alternate(
        step, state, min(max_iters, _NEWTON_AFTER), tol
    )
    slow = np.flatnonzero(~converged & (iters < max_iters))
    if slow.size and owner is not None:
        slow = _best_per_point(slow, values[slow], owner[slow], _FINISH_ROWS)
    if slow.size:
        out = (values, iters, min_deltas, r, v, converged)
        for arr, new in zip(out, polish(signs, dmat[slow], [arr[slow] for arr in out], max_iters)):
            arr[slow] = new
        back = slow[~converged[slow] & (iters[slow] < max_iters)]
        if back.size:
            rest = tuple(arr[back] for arr in state)
            values_b, iters_b, min_deltas_b, converged[back] = alternate(
                step, rest, max_iters - iters[back], tol, values[back]
            )
            for arr, rows in zip(state, rest):
                arr[back] = rows
            values[back] = values_b
            iters[back] += iters_b
            min_deltas[back] = np.minimum(min_deltas[back], min_deltas_b)
    return values, iters, min_deltas, r, v, converged
