"""Alternating-optimization kernel for one-qubit parity-guessing strategies.

Bloch-vector picture: with preparations r_x, measurement vectors v_y and
sign matrix g[x,y] = (-1)^{f_y(x)}, the average success is

    s = 1/2 + (1/(2 m k)) * sum_x Lam(r_x) . sum_y g[x,y] v_y

where Lam(r) = D r is a (symmetric-free, general 3x3) channel acting on the
prepared states.  Each half-step is closed form: the optimal r_x points along
D^T V_x and the optimal v_y along sum_x g[x,y] D r_x, so the objective never
decreases.  Everything runs batched over restarts.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12  # vectors shorter than this keep their previous direction


def run_seesaw(signs, dmat, v0, max_iters=10000, tol=1e-10):
    """Run batched see-saw iterations.

    Parameters
    ----------
    signs : (m, k) array of +-1 floats, g[x,y] = (-1)^{f_y(x)}
    dmat : (3, 3) channel matrix acting on preparation Bloch vectors
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
    dmat = np.ascontiguousarray(dmat, dtype=np.float64)
    v = np.array(v0, dtype=np.float64, copy=True)
    if v.ndim == 2:
        v = v[None]
    n_restarts, k, _ = v.shape
    m = signs.shape[0]
    scale = 1.0 / (2.0 * m * k)

    r = np.zeros((n_restarts, m, 3))
    values = np.full(n_restarts, -1.0)
    min_deltas = np.full(n_restarts, np.inf)
    iters = np.zeros(n_restarts, dtype=np.int64)
    converged = np.zeros(n_restarts, dtype=bool)
    active = np.ones(n_restarts, dtype=bool)

    for it in range(1, max_iters + 1):
        big_v = np.matmul(signs, v)  # (R, m, 3): sum_y g[x,y] v_y
        u = np.matmul(big_v, dmat)  # rows hold D^T V_x
        unorm = np.linalg.norm(u, axis=2, keepdims=True)
        r_new = np.where(unorm > _EPS, u / np.where(unorm > _EPS, unorm, 1.0), r)
        t = np.matmul(r_new, dmat.T)  # rows hold D r_x
        value1 = 0.5 + scale * np.einsum("rxc,rxc->r", t, big_v)
        w = np.matmul(signs.T, t)  # (R, k, 3): sum_x g[x,y] D r_x
        wnorm = np.linalg.norm(w, axis=2, keepdims=True)
        v_new = np.where(wnorm > _EPS, w / np.where(wnorm > _EPS, wnorm, 1.0), v)
        value2 = 0.5 + scale * np.einsum("rkc,rkc->r", v_new, w)

        step_min = np.minimum(value1 - values, value2 - value1)
        improve = value2 - values
        upd = active
        r[upd] = r_new[upd]
        v[upd] = v_new[upd]
        min_deltas[upd] = np.minimum(min_deltas[upd], step_min[upd])
        values[upd] = value2[upd]
        iters[upd] = it
        done = upd & (improve < tol)
        converged |= done
        active = active & ~done
        if not active.any():
            break

    return values, iters, min_deltas, r, v, converged
