"""Entanglement-assisted one-bit strategies and their Bell-expression values.

Alice measures her half of a shared state with a binary measurement chosen
by x, sends the outcome ω; Bob measures his half with a measurement chosen
by (ω, y) and outputs the guess.  The average success is

    s = (1/(2^n k)) sum_{x,y,ω} Tr( ρ · A^x_ω ⊗ B^{ω,y}_{f_y(x)} )

The see-saw alternates three closed-form updates: the state moves to the top
eigenvector of the effect-weighted operator, and each binary measurement
splits along the nonnegative eigenspace of its local score difference.
Local dimension is a parameter: 2 suffices for every cardinality except the
open quadruple, whose 3/4 optimum first appears at local dimension 4 with a
maximally entangled state and rank-2 projective effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalStrategy, classical_optimum
from .errors import (
    DimensionMismatchError,
    InvalidEffectError,
    InvalidInputError,
    WidthMismatchError,
)
from .mubs import FunctionSet, sign_matrix

_ATOL = 1e-10
LOCAL_DIMS = (2, 3, 4)


@dataclass(frozen=True)
class EACCStrategy:
    """Shared state plus binary effect pairs for Alice (per x) and Bob (per ω, y).

    alice[x, ω] and bob[ω, j, z] hold full effect matrices (both outcomes);
    j indexes the labels in canonical ascending order.  The state is a
    density matrix on the Alice ⊗ Bob tensor product, row-major.
    """

    n: int
    labels: tuple[int, ...]
    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self) -> None:
        state = np.asarray(self.state, dtype=np.complex128)
        alice = np.asarray(self.alice, dtype=np.complex128)
        bob = np.asarray(self.bob, dtype=np.complex128)
        m = 1 << self.n
        k = len(self.labels)
        if alice.ndim != 4 or alice.shape[:2] != (m, 2) or alice.shape[2] != alice.shape[3]:
            raise DimensionMismatchError(
                f"alice effects must have shape ({m}, 2, d, d), got {alice.shape}"
            )
        if bob.ndim != 5 or bob.shape[:3] != (2, k, 2) or bob.shape[3] != bob.shape[4]:
            raise DimensionMismatchError(
                f"bob effects must have shape (2, {k}, 2, d, d), got {bob.shape}"
            )
        d_total = alice.shape[2] * bob.shape[3]
        if state.shape != (d_total, d_total):
            raise DimensionMismatchError(
                f"state must be {d_total}x{d_total} for local dims "
                f"{alice.shape[2]}x{bob.shape[3]}, got {state.shape}"
            )
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.alice.shape[2], self.bob.shape[3])

    def to_dict(self) -> dict:
        n = self.n

        def mat(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]

        return {
            "n": n,
            "labels": [format(r, f"0{n}b") for r in self.labels],
            "state": mat(self.state),
            "alice": {
                format(x, f"0{n}b"): [mat(self.alice[x, 0]), mat(self.alice[x, 1])]
                for x in range(1 << n)
            },
            "bob": {
                f"{omega}:{format(r, f'0{n}b')}": [
                    mat(self.bob[omega, j, 0]),
                    mat(self.bob[omega, j, 1]),
                ]
                for omega in (0, 1)
                for j, r in enumerate(self.labels)
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EACCStrategy":
        def mat(entries):
            return np.array(
                [[complex(re, im) for re, im in row] for row in entries],
                dtype=np.complex128,
            )

        n = int(d["n"])
        labels = tuple(int(b, 2) for b in d["labels"])
        m = 1 << n
        state = mat(d["state"])
        alice_pairs = [d["alice"][format(x, f"0{n}b")] for x in range(m)]
        alice = np.array([[mat(p[0]), mat(p[1])] for p in alice_pairs])
        bob = np.array(
            [
                [
                    [mat(d["bob"][f"{omega}:{format(r, f'0{n}b')}"][z]) for z in (0, 1)]
                    for r in labels
                ]
                for omega in (0, 1)
            ]
        )
        return cls(n, labels, state, alice, bob)


def _check_effect_pair(pair: np.ndarray, what: str) -> None:
    d = pair.shape[-1]
    for z in (0, 1):
        eff = pair[z]
        if np.abs(eff - eff.conj().T).max() > _ATOL:
            raise InvalidEffectError(f"{what} outcome {z} is not Hermitian")
        if np.linalg.eigvalsh(eff).min() < -_ATOL:
            raise InvalidEffectError(f"{what} outcome {z} is not positive semidefinite")
    if np.abs(pair[0] + pair[1] - np.eye(d)).max() > _ATOL:
        raise InvalidEffectError(f"{what} outcomes do not sum to the identity")


def validate_strategy(strategy: EACCStrategy) -> None:
    """Hermiticity, positivity, completeness, and unit trace, all to 1e-10."""
    state = strategy.state
    if np.abs(state - state.conj().T).max() > _ATOL:
        raise InvalidEffectError("state is not Hermitian")
    if np.linalg.eigvalsh(state).min() < -_ATOL:
        raise InvalidEffectError("state is not positive semidefinite")
    if abs(np.trace(state).real - 1.0) > _ATOL:
        raise InvalidEffectError(f"state trace must be 1, got {np.trace(state)!r}")
    for x in range(1 << strategy.n):
        _check_effect_pair(strategy.alice[x], f"alice effect x={x}")
    for omega in (0, 1):
        for j, r in enumerate(strategy.labels):
            _check_effect_pair(strategy.bob[omega, j], f"bob effect (ω={omega}, label={r})")


def _bob_sums(bob: np.ndarray, ftab: np.ndarray) -> np.ndarray:
    """Bsum[x, ω] = Σ_y B^{ω,y}_{f_y(x)}, shape (m, 2, dB, dB)."""
    return np.einsum("xy,oyab->xoab", 1.0 - ftab, bob[:, :, 0]) + np.einsum(
        "xy,oyab->xoab", ftab, bob[:, :, 1]
    )


def evaluate_eacc(strategy: EACCStrategy, fset: FunctionSet) -> float:
    """Average success of a strategy on a question set."""
    if strategy.n != fset.n:
        raise WidthMismatchError(f"strategy width {strategy.n} != set width {fset.n}")
    if strategy.labels != fset.ints:
        raise DimensionMismatchError(
            f"strategy covers labels {strategy.labels}, set has {fset.ints}"
        )
    validate_strategy(strategy)
    ftab = 0.5 * (1.0 - sign_matrix(fset))
    bsum = _bob_sums(strategy.bob, ftab)
    da, db = strategy.dims
    big = np.einsum("xoij,xokl->ikjl", strategy.alice, bsum).reshape(da * db, da * db)
    m, k = ftab.shape
    return float(np.einsum("ij,ji->", strategy.state, big).real) / (m * k)


@dataclass(frozen=True)
class BellValueReport:
    """Bipartite Bell score of a strategy next to its communication value."""

    bell_value: float
    eacc_value: float


def eacc_to_bell(strategy: EACCStrategy, fset: FunctionSet) -> BellValueReport:
    """Read the strategy as a Bell experiment and score the induced correlation.

    Alice keeps her message as a local outcome u; Bob receives an extra input
    bit y0 in place of the message and outputs v.  Averaging
    p(u = y0, v = f_y(x) | x, y0, y) over all inputs reproduces the
    communication value term by term, so the two numbers must agree.
    """
    if strategy.n != fset.n:
        raise WidthMismatchError(f"strategy width {strategy.n} != set width {fset.n}")
    if strategy.labels != fset.ints:
        raise DimensionMismatchError(
            f"strategy covers labels {strategy.labels}, set has {fset.ints}"
        )
    validate_strategy(strategy)
    da, db = strategy.dims
    m = 1 << fset.n
    k = len(fset)
    ftab = (0.5 * (1.0 - sign_matrix(fset))).astype(np.int64)
    rho = strategy.state.reshape(da, db, da, db)
    # Bob-side operator left behind by Alice's outcome u on input x:
    # ka[x, u][j, k] = Σ_{a,b} ρ[(a,j),(b,k)] A^x_u[b,a]
    ka = np.einsum("ajbk,xuba->xujk", rho, strategy.alice)
    bell = 0.0
    for x in range(m):
        for y0 in (0, 1):
            for j in range(k):
                v = int(ftab[x, j])
                bell += float(
                    np.einsum("jk,kj->", ka[x, y0], strategy.bob[y0, j, v]).real
                )
    bell /= m * k
    return BellValueReport(bell_value=bell, eacc_value=evaluate_eacc(strategy, fset))


def classical_embed(
    strategy: ClassicalStrategy, fset: FunctionSet, local_dim: int = 2
) -> EACCStrategy:
    """Embed a deterministic strategy: product state, identity/zero effects."""
    d = local_dim
    m = 1 << fset.n
    k = len(fset)
    state = np.zeros((d * d, d * d), dtype=np.complex128)
    state[0, 0] = 1.0
    eye = np.eye(d, dtype=np.complex128)
    zero = np.zeros((d, d), dtype=np.complex128)
    alice = np.empty((m, 2, d, d), dtype=np.complex128)
    for x in range(m):
        omega = strategy.encoding(x)
        alice[x, omega] = eye
        alice[x, 1 - omega] = zero
    bob = np.empty((2, k, 2, d, d), dtype=np.complex128)
    for omega in (0, 1):
        for j, lab in enumerate(fset):
            z = strategy.decode(lab.r, omega)
            bob[omega, j, z] = eye
            bob[omega, j, 1 - z] = zero
    return EACCStrategy(fset.n, fset.ints, state, alice, bob)


def _haar_rank_projectors(
    rng: np.random.Generator, count: int, d: int, rank: int
) -> np.ndarray:
    """Stack of rank-`rank` projectors from Haar-random frames."""
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, _ = np.linalg.qr(g)
    cols = q[:, :, :rank]
    return np.einsum("cij,ckj->cik", cols, cols.conj())


def random_strategy(
    fset: FunctionSet, local_dim: int = 2, rng: np.random.Generator | None = None
) -> EACCStrategy:
    """Random valid strategy: Haar pure state, random projective effect pairs."""
    if rng is None:
        rng = np.random.default_rng()
    d = local_dim
    m = 1 << fset.n
    k = len(fset)
    psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    psi /= np.linalg.norm(psi)
    state = np.outer(psi, psi.conj())
    rank = (d + 1) // 2
    a0 = _haar_rank_projectors(rng, m, d, rank)
    alice = np.stack([a0, np.eye(d) - a0], axis=1)
    b0 = _haar_rank_projectors(rng, 2 * k, d, rank).reshape(2, k, d, d)
    bob = np.stack([b0, np.eye(d) - b0], axis=2)
    return EACCStrategy(fset.n, fset.ints, state, alice, bob)


def _possplit(delta: np.ndarray) -> np.ndarray:
    """Projector onto the nonnegative eigenspace, batched over leading axes.

    Zero eigenvalues land in outcome 0 via the >= 0 selection.
    """
    delta = 0.5 * (delta + np.conj(np.swapaxes(delta, -1, -2)))
    w, vecs = np.linalg.eigh(delta)
    sel = (w >= 0).astype(np.float64)
    return np.einsum("...ij,...j,...kj->...ik", vecs, sel, vecs.conj())


def eacc_seesaw(
    fset: FunctionSet,
    local_dim: int = 2,
    restarts: int = 32,
    max_iters: int = 3000,
    tol: float = 1e-10,
    seed: int = 0,
    full_output: bool = False,
):
    """Best entanglement-assisted value found by alternating optimization.

    Restart i draws rank-ceil(d/2) Haar projector effects from the generator
    seeded with (seed, i); one extra start embeds an optimal classical
    strategy so the result never falls below the classical optimum.  Returns
    (value, EACCStrategy), plus a diagnostics dict when full_output is set.
    """
    if local_dim not in LOCAL_DIMS:
        raise DimensionMismatchError(
            f"local dimension must be one of {LOCAL_DIMS}, got {local_dim}"
        )
    if restarts < 1:
        raise InvalidInputError("need at least one restart")
    if max_iters < 1:
        raise InvalidInputError("need at least one iteration")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tolerance must be finite and positive, got {tol!r}")
    d = local_dim
    m = 1 << fset.n
    k = len(fset)
    ftab = 0.5 * (1.0 - sign_matrix(fset))
    m0, m1 = 1.0 - ftab, ftab
    rank = (d + 1) // 2

    a_list = []
    b_list = []
    for i in range(restarts):
        rng = np.random.default_rng((seed, i))
        a_list.append(_haar_rank_projectors(rng, m, d, rank))
        b_list.append(_haar_rank_projectors(rng, 2 * k, d, rank).reshape(2, k, d, d))
    if fset.n <= 4:
        _, strategies = classical_optimum(fset, max_strategies=1)
        emb = classical_embed(strategies[0], fset, local_dim=d)
        a_list.append(emb.alice[:, 0])
        b_list.append(emb.bob[:, :, 0])
    a0 = np.stack(a_list)  # (R, m, d, d)
    b0 = np.stack(b_list)  # (R, 2, k, d, d)
    n_restarts = a0.shape[0]

    eye = np.eye(d, dtype=np.complex128)
    aeff = np.stack([a0, eye - a0], axis=2)  # (R, m, 2, d, d)
    beff = np.stack([b0, eye - b0], axis=3)  # (R, 2, k, 2, d, d)

    values = np.full(n_restarts, -1.0)
    iters = np.zeros(n_restarts, dtype=np.int64)
    min_deltas = np.full(n_restarts, np.inf)
    converged = np.zeros(n_restarts, dtype=bool)
    active = np.ones(n_restarts, dtype=bool)
    psi = np.zeros((n_restarts, d * d), dtype=np.complex128)
    scale = 1.0 / (m * k)

    for it in range(1, max_iters + 1):
        bsum = np.einsum("xy,royab->rxoab", m0, beff[:, :, :, 0]) + np.einsum(
            "xy,royab->rxoab", m1, beff[:, :, :, 1]
        )
        big = np.einsum("rxoij,rxokl->rikjl", aeff, bsum).reshape(
            n_restarts, d * d, d * d
        )
        big = 0.5 * (big + np.conj(np.swapaxes(big, -1, -2)))
        w, vecs = np.linalg.eigh(big)
        psi_new = vecs[:, :, -1]
        v_state = w[:, -1].real * scale
        pmat = psi_new.reshape(n_restarts, d, d)
        rho4 = np.einsum("raj,rbk->rajbk", pmat, pmat.conj())

        # Alice: per x, split along K^x_0 - K^x_1 with
        # K^x_ω[a,b] = Σ_{j,k} ρ[(a,j),(b,k)] Bsum^{x,ω}[k,j]
        kmat = np.einsum("rajbk,rxokj->rxoab", rho4, bsum)
        a0_new = _possplit(kmat[:, :, 0] - kmat[:, :, 1])
        aeff_new = np.stack([a0_new, eye - a0_new], axis=2)
        v_alice = np.einsum("rxoab,rxoba->r", kmat, aeff_new).real * scale

        # Bob: per (ω, y), split along L_0 - L_1 with
        # L_z[j,k] = Σ_{a,b} ρ[(a,j),(b,k)] (Σ_{x: f_y(x)=z} A^x_ω)[b,a]
        aa0 = np.einsum("xy,rxoab->royab", m0, aeff_new)
        aa1 = np.einsum("xy,rxoab->royab", m1, aeff_new)
        l0 = np.einsum("rajbk,royba->royjk", rho4, aa0)
        l1 = np.einsum("rajbk,royba->royjk", rho4, aa1)
        b0_new = _possplit(l0 - l1)
        beff_new = np.stack([b0_new, eye - b0_new], axis=3)
        v_bob = (
            np.einsum("royjk,roykj->r", l0, beff_new[:, :, :, 0])
            + np.einsum("royjk,roykj->r", l1, beff_new[:, :, :, 1])
        ).real * scale

        step_min = np.minimum(
            np.minimum(v_state - values, v_alice - v_state), v_bob - v_alice
        )
        improve = v_bob - values
        upd = active
        psi[upd] = psi_new[upd]
        aeff[upd] = aeff_new[upd]
        beff[upd] = beff_new[upd]
        min_deltas[upd] = np.minimum(min_deltas[upd], step_min[upd])
        values[upd] = v_bob[upd]
        iters[upd] = it
        done = upd & (improve < tol)
        converged |= done
        active = active & ~done
        if not active.any():
            break

    best = int(np.argmax(values))
    state = np.outer(psi[best], psi[best].conj())
    strategy = EACCStrategy(fset.n, fset.ints, state, aeff[best], beff[best])
    value = float(values[best])
    if full_output:
        info = {
            "iterations": int(iters[best]),
            "min_delta": float(min_deltas[best]),
            "converged": bool(converged[best]),
            "restarts_used": n_restarts,
        }
        return value, strategy, info
    return value, strategy
