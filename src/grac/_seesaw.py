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
D^T V_x and the optimal v_y along sum_x g[x,y] D r_x.

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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, check_integer, check_real

if TYPE_CHECKING:
    from .eacc import EACCStrategy
    from .quantum import PMStrategy

_EPS = 1e-12  # vectors shorter than this keep their previous direction
_BETA_START = 2.0  # extrapolation factor of a fresh row
_BETA_GROW = 1.5  # beta multiplier after a taken candidate
_BETA_MIN = 1.25  # floor of beta after a refused candidate halves it


@dataclass(frozen=True)
class SeesawReport:
    """Best restart of a see-saw run."""

    value: float
    iterations: int
    restarts_used: int
    converged: bool
    best_strategy: PMStrategy | EACCStrategy
    seed: int
    min_step_delta: float


def check_budget(restarts: int, max_iters: int, tol: float) -> None:
    """Reject a see-saw budget that cannot run or cannot stop."""
    check_integer("restarts", restarts)
    check_integer("max_iters", max_iters)
    if restarts < 1:
        raise InvalidInputError("need at least one restart")
    if max_iters < 1:
        raise InvalidInputError("need at least one iteration")
    check_real("tolerance", tol)
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tolerance must be finite and positive, got {tol!r}")


def check_seed(seed: int) -> None:
    """Reject a seed that numpy's generator would refuse or silently truncate."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")


def next_beta(beta, take):
    """Each row's beta after a trip: x_BETA_GROW if its candidate was taken, else
    halved to no less than _BETA_MIN."""
    return np.maximum(beta * np.where(take, _BETA_GROW, 0.5), _BETA_MIN)


def alternate(step, state, max_iters, tol):
    """Iterate step over a batch of restarts until every restart converges.

    Only restarts still running are stepped.  The loop keeps the caller
    index of each running row and a compacted working copy of their state.
    On an iteration where some row freezes, and on the last iteration, it
    writes the frozen rows' final state, value, iteration count, smallest
    half-step improvement and convergence into the caller's arrays, then
    drops them from the working copy; other iterations do no indexing.  The
    batch that step sees therefore shrinks: step must not capture the batch
    size, and a per-restart constant must be one of the state arrays (step
    returns it unchanged) so that it shrinks with the rows it belongs to.

    Parameters
    ----------
    step : callable taking the arrays of state, returning (new_state, halves):
        new arrays in the same order (the arguments must not be written)
        and the objective of each row after each half-step
    state : tuple of arrays with one leading row per restart; each row
        receives its restart's final state when the restart freezes
    max_iters : iteration cap per restart
    tol : freeze a restart once its per-iteration improvement drops below tol

    Returns
    -------
    values : (R,) final objective per restart
    iters : (R,) iterations actually used
    min_deltas : (R,) smallest half-step improvement seen (monotonicity check)
    converged : (R,) bool, False for restarts still running at max_iters
    """
    n_restarts = state[0].shape[0]
    values = np.full(n_restarts, -1.0)
    min_deltas = np.full(n_restarts, np.inf)
    iters = np.zeros(n_restarts, dtype=np.int64)
    converged = np.zeros(n_restarts, dtype=bool)

    rows = np.arange(n_restarts)  # caller index of each working row
    work = tuple(state)
    value = values.copy()
    min_delta = min_deltas.copy()
    for it in range(1, max_iters + 1):
        work, halves = step(*work)
        step_min = halves[0] - value
        for before, after in zip(halves, halves[1:]):
            step_min = np.minimum(step_min, after - before)
        min_delta = np.minimum(min_delta, step_min)
        done = halves[-1] - value < tol
        value = halves[-1]
        last = it == max_iters
        if not (last or done.any()):
            continue
        freeze = np.ones_like(done) if last else done
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

    dmat is (3, 3) or one matrix per row; rows of r are kept where the reply
    has no direction.
    """
    m, k = signs.shape
    scale = 1.0 / (2.0 * m * k)
    u = np.matmul(np.matmul(signs, v), dmat)  # rows hold D^T V_x
    r_new, norms = _unit_rows(u, r)
    return r_new, 0.5 + scale * norms.sum(axis=(-2, -1))


def run_seesaw(signs, dmat, v0, max_iters, tol):
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

    Parameters
    ----------
    signs : (m, k) array of +-1 floats, g[x,y] = (-1)^{f_y(x)}
    dmat : (3, 3) channel matrix acting on preparation Bloch vectors, shared
        by every row, or (R, 3, 3) with one matrix per row
    v0 : (R, k, 3) or (k, 3) initial measurement vectors, one row per restart
    max_iters : iteration cap per restart
    tol : stop a restart once its per-iteration improvement drops below tol

    Returns
    -------
    values : (R,) final objective per restart
    iters : (R,) iterations actually used
    min_deltas : (R,) smallest half-step improvement seen (monotonicity check)
    rvecs : (R, m, 3) final preparations
    vvecs : (R, k, 3) final measurement vectors
    converged : (R,) bool
    """
    signs = np.ascontiguousarray(signs, dtype=np.float64)
    v = np.array(v0, dtype=np.float64, copy=True)
    if v.ndim == 2:
        v = v[None]
    n_restarts, k, _ = v.shape
    m = signs.shape[0]
    scale = 1.0 / (2.0 * m * k)
    signs_t = np.ascontiguousarray(signs.T)
    # copies: final channels are written back, and a transposed view slows every matmul
    dmat = np.array(np.broadcast_to(np.asarray(dmat, dtype=np.float64), (n_restarts, 3, 3)))
    dmat_t = np.ascontiguousarray(dmat.transpose(0, 2, 1))

    r, _ = best_reply(signs, dmat, v, np.zeros((n_restarts, m, 3)))
    beta = np.full(n_restarts, _BETA_START)

    def step(r, v, beta, d, d_t):
        w = np.matmul(signs_t, np.matmul(r, d_t))  # (R, k, 3): sum_x g[x,y] D r_x
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

    values, iters, min_deltas, converged = alternate(
        step, (r, v, beta, dmat, dmat_t), max_iters, tol
    )
    return values, iters, min_deltas, r, v, converged
