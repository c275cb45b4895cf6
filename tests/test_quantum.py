"""Prepare-and-measure strategies, the see-saw driver, and its invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grac import (
    FunctionSet,
    InvalidInputError,
    PMStrategy,
    WidthMismatchError,
    classical_optimum,
    evaluate_pm,
    full_mubs,
    norm_cancellation_check,
    pm_upper_bound,
    seesaw,
    sign_matrix,
)
from grac import _seesaw, quantum
from grac._seesaw import (
    _FINISH_ROWS,
    _NEWTON_AFTER,
    alternate,
    certificate,
    newton_finish,
    tangent_model,
)
from grac.channels import BlochMap, dephasing_sweep
from grac.eacc import eacc_seesaw
from grac.quantum import run_seesaw
from grac.tables import representative_set


def test_sign_matrix_small():
    fset = FunctionSet.from_ints(2, (1, 2, 3))
    g = sign_matrix(fset)
    # rows x = 00,01,10,11; columns r = 01,10,11
    expected = np.array(
        [
            [1, 1, 1],
            [-1, 1, -1],
            [1, -1, -1],
            [-1, -1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(g, expected)


def test_pm_upper_bound():
    assert pm_upper_bound(1) == 1.0
    assert pm_upper_bound(2) == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-15)
    assert pm_upper_bound(4) == 0.75
    for bad in (0, True, 2.5):
        with pytest.raises(InvalidInputError):
            pm_upper_bound(bad)


def _diag_strategy(n=1):
    m = 1 << n
    preps = {x: (0.0, 0.0, 1.0 - 2.0 * (x & 1)) for x in range(m)}
    meas = {1: (0.0, 0.0, 1.0)}
    return PMStrategy(n, preps, meas)


def test_evaluate_pm_perfect_single_question():
    # guessing f_1(x) = last bit of x from a z-axis encoding succeeds always
    strat = _diag_strategy(1)
    fset = FunctionSet.from_ints(1, (1,))
    assert evaluate_pm(strat, fset) == pytest.approx(1.0, abs=1e-15)


def test_pm_strategy_validation():
    with pytest.raises(ValueError):
        PMStrategy(1, {0: (0, 0, 1)}, {1: (0, 0, 1)})  # missing input 1
    with pytest.raises(ValueError):
        PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, 0.5)}, {1: (0, 0, 1)})  # not unit
    with pytest.raises(ValueError):
        PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {0: (0, 0, 1)})  # zero label
    with pytest.raises(ValueError):
        PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {2: (0, 0, 1)})  # label too wide


def test_pm_strategy_rejects_non_finite_vectors():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(InvalidInputError, match="finite"):
        PMStrategy(1, {0: (nan, 0, 0), 1: (1, 0, 0)}, {1: (nan, nan, nan)})
    with pytest.raises(InvalidInputError, match="finite"):
        PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {1: (inf, 0, 0)})
    good = _diag_strategy(1).to_dict()
    good["measurements"]["1"] = [0.0, nan, 1.0]
    with pytest.raises(InvalidInputError, match="finite"):
        PMStrategy.from_dict(good)


def test_pm_strategy_refuses_a_huge_vector_without_an_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="must be unit norm"):
            PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {1: (1e308, 1e308, 0)})


def test_non_numeric_channels_and_axes_are_refused():
    with pytest.raises(InvalidInputError, match="channel matrix entry"):
        seesaw(full_mubs(2), restarts=1, channel=[["a"] * 3] * 3)
    with pytest.raises(InvalidInputError, match="axis coordinate"):
        dephasing_sweep(full_mubs(2), axis=(True, 0.0, 0.0))


def test_pm_strategy_roundtrip():
    strat = _diag_strategy(1)
    back = PMStrategy.from_dict(strat.to_dict())
    assert back.n == strat.n
    assert back.preparations == strat.preparations
    assert back.measurements == strat.measurements


def test_evaluate_pm_rotation_invariance():
    fset = full_mubs(3)
    rng = np.random.default_rng(5)
    report = seesaw(fset, restarts=4, seed=3)
    strat = report.best_strategy
    # a fixed rotation (QR of a random matrix, det forced +1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rot = PMStrategy(
        strat.n,
        {x: tuple(q @ np.array(v)) for x, v in strat.preparations.items()},
        {r: tuple(q @ np.array(v)) for r, v in strat.measurements.items()},
    )
    assert evaluate_pm(rot, fset) == pytest.approx(evaluate_pm(strat, fset), abs=1e-12)


def test_evaluate_pm_width_mismatch():
    strat = _diag_strategy(1)
    with pytest.raises(WidthMismatchError):
        evaluate_pm(strat, full_mubs(3))


def test_norm_cancellation_identity():
    rng = np.random.default_rng(0)
    for ints in [(1, 2), (1, 2, 4), (1, 2, 3, 4), tuple(range(1, 8))]:
        fset = FunctionSet.from_ints(3, ints)
        k = len(fset)
        for _ in range(20):
            v = rng.standard_normal((k, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            total = norm_cancellation_check(fset, v)
            assert total == pytest.approx(8 * k, abs=1e-9)


def test_classical_start_vectors_shape_and_axis():
    fset = full_mubs(3)
    vecs = quantum._game(fset, axis=(1.0, 0.0, 0.0)).starts[-1]
    assert vecs.shape == (7, 3)
    assert np.allclose(np.abs(vecs[:, 0]), 1.0)
    assert np.allclose(vecs[:, 1:], 0.0)


@pytest.mark.parametrize("k, restarts, seed", [(1, 1, 0), (4, 8, 3), (10, 65, 7)])
def test_pm_starts_are_one_seeded_draw(k, restarts, seed):
    """A start set's random rows are unit, fixed by the seed alone, and the
    first r of them are the same for any restarts >= r; the classical
    starts follow them in order."""
    classical = (np.ones((k, 3)) / math.sqrt(3), -np.ones((k, 3)) / math.sqrt(3))
    got = quantum._pm_starts(k, restarts, seed, classical)
    none = np.empty((0, k, 3))
    assert got.shape == (restarts + 2, k, 3)
    assert np.abs(np.linalg.norm(got, axis=2) - 1.0).max() <= 1e-15
    assert np.array_equal(got[restarts:], np.stack(classical))
    assert np.array_equal(got[:restarts], quantum._pm_starts(k, restarts, seed, none))
    more = quantum._pm_starts(k, restarts + 3, seed, none)
    assert np.array_equal(more[:restarts], got[:restarts])
    assert np.array_equal(quantum._pm_starts(k, 1, seed, none), got[:1])
    assert not np.isclose(quantum._pm_starts(k, restarts, seed + 1, none), got[:restarts]).all()


def test_pm_starts_give_a_zero_draw_a_unit_row(monkeypatch):
    """A drawn row too short to have a direction becomes the z axis, not NaN."""
    real = np.random.default_rng

    class ZeroFirstRow:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, shape):
            draws = self.rng.standard_normal(shape)
            draws[0, 0] = 0.0
            return draws

    monkeypatch.setattr(np.random, "default_rng", ZeroFirstRow)
    got = quantum._pm_starts(3, 4, 0, np.empty((0, 3, 3)))
    assert np.array_equal(got[0, 0], [0.0, 0.0, 1.0])
    assert np.abs(np.linalg.norm(got, axis=2) - 1.0).max() <= 1e-15


def test_seesaw_reaches_pair_optimum():
    fset = FunctionSet.from_ints(3, (4, 2))
    report = seesaw(fset, restarts=8, seed=7)
    assert report.converged
    assert report.value == pytest.approx(pm_upper_bound(2), abs=1e-9)
    # reported value matches re-evaluating the returned strategy
    assert evaluate_pm(report.best_strategy, fset) == pytest.approx(report.value, abs=1e-9)


def test_seesaw_respects_upper_bound_and_classical_floor():
    for ints in [(1, 2, 4), (1, 2, 3, 4), (1, 2, 4, 7), (1, 2, 3, 4, 5)]:
        fset = FunctionSet.from_ints(3, ints)
        report = seesaw(fset, restarts=6, seed=1)
        assert report.value <= pm_upper_bound(len(fset)) + 1e-9
        assert report.value >= classical_optimum(fset)[0].value - 1e-9
        assert report.min_step_delta > -1e-9


def test_seesaw_deterministic():
    fset = FunctionSet.from_ints(3, (1, 2, 3, 4))
    r1 = seesaw(fset, restarts=5, seed=42)
    r2 = seesaw(fset, restarts=5, seed=42)
    assert r1.value == r2.value
    assert r1.best_strategy.to_dict() == r2.best_strategy.to_dict()


def test_seesaw_channel_degrades_value():
    fset = FunctionSet.from_ints(3, (4, 2))
    clean = seesaw(fset, restarts=4, seed=0)
    noisy = seesaw(fset, restarts=4, seed=0, channel=np.eye(3) * 0.6)
    assert noisy.value < clean.value
    assert noisy.value == pytest.approx(0.5 + 0.6 * (clean.value - 0.5), abs=1e-7)


def test_seesaw_argument_validation():
    fset = FunctionSet.from_ints(3, (4, 2))
    with pytest.raises(ValueError):
        seesaw(fset, restarts=0)
    with pytest.raises(ValueError):
        seesaw(fset, max_iters=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {1: (0, 1)}),
        lambda: evaluate_pm(
            PMStrategy(2, dict.fromkeys(range(4), (0, 0, 1)), {1: (0, 0, 1)}),
            FunctionSet.from_ints(2, (1, 2)),
        ),
    ],
    ids=["measurement 2-vector", "no measurement for a label"],
)
def test_a_strategy_without_a_3_vector_per_label_is_refused(call):
    with pytest.raises(InvalidInputError):
        call()


def test_pm_strategy_from_dict_rejects_empty_preparations():
    with pytest.raises(InvalidInputError):
        PMStrategy.from_dict({"preparations": {}, "measurements": {}})


def _random_kernel_problem(seed, k=4, restarts=6):
    rng = np.random.default_rng(seed)
    fset = FunctionSet.from_ints(3, tuple(rng.choice(range(1, 8), size=k, replace=False)))
    signs = sign_matrix(fset)
    v0 = rng.standard_normal((restarts, k, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    dmat = np.eye(3)
    return signs, dmat, v0


def test_kernel_deterministic():
    signs, dmat, v0 = _random_kernel_problem(11)
    out1 = run_seesaw(signs, dmat, v0.copy(), 500, 1e-10)
    out2 = run_seesaw(signs, dmat, v0.copy(), 500, 1e-10)
    for a, b in zip(out1, out2):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_kernel_monotone_steps_reported():
    signs, dmat, v0 = _random_kernel_problem(3, k=6, restarts=8)
    _, _, min_deltas, _, _, _ = run_seesaw(signs, dmat, v0, 2000, 1e-10)
    assert (np.asarray(min_deltas) > -1e-9).all()


def test_kernel_single_start_accepted():
    signs, dmat, v0 = _random_kernel_problem(5, k=3, restarts=1)
    vals, iters, _, rvecs, vvecs, conv = run_seesaw(signs, dmat, v0[0], 1000, 1e-10)
    assert np.asarray(vals).shape == (1,)
    assert np.asarray(rvecs).shape == (1, 8, 3)
    assert np.asarray(vvecs).shape == (1, 3, 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_rows_replay_and_stay_bounded_at_widths_4_to_6(data):
    """Every returned (r, v) pair scores its reported value, steps go uphill,
    and no value passes the 1/2(1+1/sqrt(k)) ceiling.

    Budgets are short, so many rows stop right after a taken extrapolated
    step; a candidate stored without its own best reply fails the replay.
    """
    n = data.draw(st.integers(4, 6), label="n")
    labels = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=12, unique=True),
        label="labels",
    )
    max_iters = data.draw(st.integers(1, 60), label="max_iters")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="dephased"):
        lam = data.draw(st.floats(0.0, 0.5), label="lam")
        dmat = BlochMap.dephasing(lam, rng.standard_normal(3)).matrix()
    else:
        dmat = np.eye(3)
    signs = sign_matrix(FunctionSet.from_ints(n, tuple(labels)))
    m, k = signs.shape
    v0 = rng.standard_normal((5, k, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)

    values, _, min_deltas, rvecs, vvecs, _ = run_seesaw(signs, dmat, v0, max_iters, 1e-10)
    replay = 0.5 + np.einsum("xy,rxc,ryc->r", signs, rvecs @ dmat.T, vvecs) / (2 * m * k)
    assert np.abs(replay - values).max() <= 1e-12
    assert (min_deltas >= -1e-12).all()  # rounding only: each half-step is uphill
    assert (values <= pm_upper_bound(k) + 1e-12).all()


def test_extrapolation_converges_at_a_slow_dephasing_point():
    """The open quadruple at dephasing 0.045 took 1,981 plain see-saw iterations."""
    fset = representative_set(4, "open")
    report = seesaw(fset, restarts=1, seed=0, channel=BlochMap.dephasing(0.045))
    assert report.converged
    assert report.iterations <= 1000
    assert report.value >= 0.7292479


def test_alternate_freezes_converged_rows():
    """Toy step: row i climbs one unit per iteration up to caps[i].

    The first half-step reaches the new level and the second adds nothing,
    so a running row's smallest half-step improvement is 0; row 2 takes a
    planted downhill second half-step (-0.5) on its second iteration.  A row
    converges on the first iteration that gains nothing, so row 0 (cap 0)
    needs two: its first gain is measured from the starting value -1.  The
    last row is still climbing at max_iters.
    """
    caps = np.array([0.0, 2.0, 5.0, 100.0])
    row = np.arange(4)  # the batch shrinks, so rows are named, not positioned
    level = np.zeros(4)
    calls = np.zeros(4)  # per-row step count; frozen rows must stop counting

    def step(level, calls, caps, row):
        new_level = np.minimum(level + 1.0, caps)
        half = new_level + np.where((row == 2) & (calls == 1), 0.5, 0.0)
        return (new_level, calls + 1.0, caps, row), (half, new_level)

    values, iters, min_deltas, converged = alternate(
        step, (level, calls, caps, row), 10, 1e-9
    )
    assert iters.tolist() == [2, 3, 6, 10]
    assert calls.tolist() == [2.0, 3.0, 6.0, 10.0]
    assert converged.tolist() == [True, True, True, False]
    assert values.tolist() == [0.0, 2.0, 5.0, 10.0]
    assert level.tolist() == [0.0, 2.0, 5.0, 10.0]
    assert min_deltas.tolist() == [0.0, 0.0, -0.5, 0.0]


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_rows_independent_of_batch(n):
    """Row i of a batched run equals a solo run of v0[i], bit for bit.

    The driver drops converged rows and writes each one back when it
    freezes, so a row written to the wrong place shows here.  With one
    channel matrix per row, row i's solo run takes its own matrix as the
    shared (3, 3) one, so a per-row channel that is dropped out of step
    with its row, or computed differently from a shared one, shows too.
    """
    rng = np.random.default_rng(40 + n)
    dephasing = np.diag([1.0, 0.4, 0.4])
    per_row = np.stack(
        [
            BlochMap.dephasing(float(lam), rng.standard_normal(3)).matrix()
            for lam in rng.uniform(0.0, 0.5, 15)
        ]
    )
    before = per_row.copy()
    for _ in range(3):
        labels = rng.choice(range(1, 1 << n), size=n + 1, replace=False)
        signs = sign_matrix(FunctionSet.from_ints(n, tuple(int(x) for x in labels)))
        for dmat in (np.eye(3), dephasing, per_row):
            v0 = rng.standard_normal((15, n + 1, 3))
            v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
            batch = run_seesaw(signs, dmat, v0, 400, 1e-10)
            for i in range(len(v0)):
                solo = run_seesaw(signs, dmat[i] if dmat.ndim == 3 else dmat, v0[i], 400, 1e-10)
                for whole, one in zip(batch, solo):
                    assert np.array_equal(np.asarray(whole)[i], np.asarray(one)[0])
    assert np.array_equal(per_row, before)  # the caller's matrices are left as given


def _record_finished_rows(monkeypatch):
    """Wrap the kernel's Newton finish; the list fills with (r, v, value, steps)
    for each row it converges and (None, v, value, steps) for each it fails."""
    rows = []

    def spy(signs, dmat, r, v, value, max_steps):
        steps, gains, converged = newton_finish(signs, dmat, r, v, value, max_steps)
        for i in range(len(v)):
            kept = r[i].copy() if converged[i] else None
            rows.append((kept, v[i].copy(), float(value[i]), int(steps[i])))
        return steps, gains, converged

    monkeypatch.setattr(_seesaw, "newton_finish", spy)
    return rows


def _gauge_free_top_eigenvalue(basis, hess, v, axes):
    """Top eigenvalue of a tangent Hessian on the complement of the rotations about axes.

    A rotation about a moves each v_y by a x v_y; those tangent vectors span
    directions along which the objective is constant.
    """
    gauge = np.stack([np.matmul(basis, np.cross(a, v)[..., None]).ravel() for a in axes], axis=1)
    q, _ = np.linalg.qr(gauge)
    proj = np.eye(len(hess)) - q @ q.T
    return np.linalg.eigvalsh(proj @ hess @ proj).max()


@pytest.mark.parametrize(
    "labels, lam",
    [(None, 0.03), (None, 0.045), ((2, 5, 6, 8, 10, 14, 15), None)],
    ids=["open-quadruple-0.03", "open-quadruple-0.045", "width-4-k7-noiseless"],
)
def test_newton_finished_rows_are_certified_local_maxima(monkeypatch, labels, lam):
    """Rows still running after _NEWTON_AFTER trips finish by saddle-free Newton steps.

    The open quadruple under dephasing along x, and this noiseless width-4
    set, converge slowly near their optima (at dephasing 0.045 the plain
    see-saw took 1,981 trips).  Every row the finish converges must replay
    to its value, reach a tangent gradient <= 1e-9 and have no ascent
    direction left: its tangent Hessian, with the gauge rotations removed
    (the one about the dephasing axis, or all three without noise), is
    negative semidefinite.  The kernel returns such a row as converged,
    with the finish's steps added to its trips.
    """
    rows = _record_finished_rows(monkeypatch)
    fset = representative_set(4, "open") if labels is None else FunctionSet.from_ints(4, labels)
    signs = sign_matrix(fset)
    m, k = signs.shape
    axis = np.array([1.0, 0.0, 0.0])
    dmat = np.eye(3) if lam is None else BlochMap.dephasing(lam, axis).matrix()
    rng = np.random.default_rng(19)
    v0 = rng.standard_normal((24, k, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    values, iters, _, _, vvecs, converged = run_seesaw(signs, dmat, v0, 10000, 1e-10)

    finished = [row for row in rows if row[0] is not None]
    assert len(finished) >= 3
    for r, v, value, steps in finished:
        replay = 0.5 + np.einsum("xy,xc,yc->", signs, r @ dmat.T, v) / (2 * m * k)
        assert abs(replay - value) <= 1e-12
        _, basis, grad, hess, thin = tangent_model(signs, dmat[None], r[None], v[None])
        assert not thin[0]
        assert np.abs(grad).max() <= 1e-9
        axes = np.eye(3) if lam is None else axis[None]
        assert _gauge_free_top_eigenvalue(basis[0], hess[0], v, axes) <= 1e-9
        i = int(np.flatnonzero((vvecs == v).all(axis=(1, 2)))[0])
        assert values[i] == value and converged[i] and iters[i] == _NEWTON_AFTER + steps


def test_the_finish_makes_slow_rows_fast():
    """One slow restart of the open quadruple at dephasing 0.045 ends in a few Newton steps.

    The extrapolated see-saw alone took 757 trips on it and stopped 2.3e-8
    lower, at 0.7292479509.
    """
    fset = representative_set(4, "open")
    report = seesaw(fset, restarts=1, seed=0, channel=BlochMap.dephasing(0.045))
    assert report.converged
    assert _NEWTON_AFTER < report.iterations <= _NEWTON_AFTER + 12
    assert report.tangent_grad <= 1e-9
    assert report.top_hessian_eig < 0
    assert report.value >= 0.72924797414


@pytest.mark.parametrize("seed", [0, 1])
def test_tangent_model_matches_finite_differences(seed):
    """The tangent gradient and Hessian are the first and second derivatives of
    the objective along geodesics, at random points and channels, and in R^5
    with no channel."""
    rng = np.random.default_rng(seed)
    for n, k in ((3, 4), (4, 7)):
        labels = rng.choice(range(1, 1 << n), size=k, replace=False)
        signs = sign_matrix(FunctionSet.from_ints(n, tuple(int(x) for x in labels)))
        m = signs.shape[0]
        dephasing = BlochMap.dephasing(0.3, rng.standard_normal(3)).matrix()
        for dmat in (np.eye(3), dephasing, np.eye(5)):
            dim = len(dmat)
            v = rng.standard_normal((k, dim))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            r, _ = _seesaw.best_reply(signs, dmat[None], v[None], np.zeros((1, m, dim)))
            _, basis, grad, hess, _ = tangent_model(signs, dmat[None], r, v[None])
            xi = rng.standard_normal((dim - 1) * k)
            move = np.matmul(xi.reshape(k, 1, dim - 1), basis[0])[:, 0]  # tangent vector per label
            size = np.linalg.norm(move, axis=1, keepdims=True)

            def objective(t):
                point = np.cos(t * size) * v + np.sin(t * size) * move / size
                return _seesaw.best_reply(signs, dmat[None], point[None], r)[1][0] * (2 * m * k)

            first = (objective(1e-5) - objective(-1e-5)) / 2e-5
            second = (objective(1e-4) - 2 * objective(0.0) + objective(-1e-4)) / 1e-8
            assert first == pytest.approx(grad[0] @ xi, rel=1e-6, abs=1e-6)
            assert second == pytest.approx(xi @ hess[0] @ xi, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("dim", [3, 5])
def test_the_tangent_basis_is_orthonormal_and_orthogonal_to_v(dim):
    """Each v_y's N - 1 basis vectors are orthonormal and orthogonal to v_y, in
    R^3 and R^5, on every signed coordinate axis and on random unit vectors."""
    signs = sign_matrix(full_mubs(4))
    m, k = signs.shape
    rng = np.random.default_rng(dim)
    axes = np.concatenate((np.eye(dim), -np.eye(dim)))
    drawn = rng.standard_normal((k - len(axes), dim))
    v = np.concatenate((axes, drawn / np.linalg.norm(drawn, axis=1, keepdims=True)))
    _, basis, _, _, _ = tangent_model(signs, np.eye(dim)[None], np.zeros((1, m, dim)), v[None])
    assert basis.shape == (1, k, dim - 1, dim)
    gram = np.matmul(basis[0], basis[0].transpose(0, 2, 1))
    assert np.abs(gram - np.eye(dim - 1)).max() <= 1e-15
    assert np.abs(np.matmul(basis[0], v[..., None])).max() <= 1e-15


def test_seesaw_reports_the_best_rows_certificate():
    """seesaw's certificate is `certificate` at its best strategy, after the polish."""
    fset = representative_set(3)
    report = seesaw(fset, restarts=6, seed=2)
    signs = sign_matrix(fset)
    strategy = report.best_strategy
    grad, eig = certificate(
        signs, np.eye(3)[None], strategy.prep_array()[None], strategy.meas_array(fset)[None]
    )
    assert report.tangent_grad == pytest.approx(float(grad[0]), abs=1e-12)
    assert report.tangent_grad <= 1e-9
    assert report.top_hessian_eig == pytest.approx(float(eig[0]), rel=1e-6)
    assert report.top_hessian_eig < 0


def test_kernel_rows_independent_of_batch_through_the_finish(monkeypatch):
    """Rows that the Newton finish converges, and rows it hands back to the
    see-saw, equal solo runs bit for bit.

    The width-4 set has its optimum on the 1/2(1 + 1/sqrt(8)) ceiling, where
    the optimum is not isolated and some rows stall in the finish.
    """
    rows = _record_finished_rows(monkeypatch)
    signs = sign_matrix(FunctionSet.from_ints(4, (1, 2, 4, 6, 8, 9, 10, 14)))
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal((15, 8, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    batch = run_seesaw(signs, np.eye(3), v0, 400, 1e-10)
    assert any(row[0] is not None for row in rows)  # converged by the finish
    assert any(row[0] is None for row in rows)  # handed back to the see-saw
    for i in range(len(v0)):
        solo = run_seesaw(signs, np.eye(3), v0[i], 400, 1e-10)
        for whole, one in zip(batch, solo):
            assert np.array_equal(np.asarray(whole)[i], np.asarray(one)[0])


def test_newton_finish_takes_one_budget_per_row():
    """Rows given their own step budgets in one call equal solo calls on those budgets.

    The open quadruple at dephasing 0.045 after 40 trips has rows far from
    converged, so a budget of 0, 1 or 2 binds and 20 does not.
    """
    signs = sign_matrix(representative_set(4, "open"))
    dmat = BlochMap.dephasing(0.045).matrix()
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal((8, 4, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    values, _, _, r, v, _ = run_seesaw(signs, dmat, v0, _NEWTON_AFTER, 1e-10)
    budget = np.array([0, 1, 2, 20, 0, 1, 2, 20])
    dmats = np.repeat(dmat[None], len(v0), axis=0)
    batch = (r.copy(), v.copy(), values.copy())
    out = newton_finish(signs, dmats, *batch, budget)
    assert (out[0] <= budget).all() and out[0][budget == 0].sum() == 0
    assert (out[0] == budget)[budget > 0].any()  # some budget binds
    for i in range(len(v0)):
        solo = (r[i : i + 1].copy(), v[i : i + 1].copy(), values[i : i + 1].copy())
        solo_out = newton_finish(signs, dmats[i : i + 1], *solo, int(budget[i]))
        for whole, one in zip(batch + out, solo + solo_out, strict=True):
            assert np.array_equal(whole[i], one[0])


def test_above_the_newton_cap_kept_rows_resume_the_seesaw(monkeypatch):
    """At k = 12 > _NEWTON_MAX_DIM / 2 the hand-off sends its rows back to the see-saw.

    The driver runs twice per kernel call: on all 8 rows up to
    _NEWTON_AFTER trips, then on the rows still running there, which
    `polish` returns unchanged instead of calling `newton_finish`.  Row i
    of a batch equals a solo run of v0[i], bit for bit.  A one-point solve
    at that k calls no finish either.
    """

    def refuse(*args):
        raise AssertionError("newton_finish called above the cap")

    passes = []

    def counting(*args, **kwargs):
        passes.append(len(args[1][0]))
        return alternate(*args, **kwargs)

    monkeypatch.setattr(_seesaw, "newton_finish", refuse)
    monkeypatch.setattr(_seesaw, "alternate", counting)
    fset = FunctionSet.from_ints(4, tuple(range(1, 13)))
    signs = sign_matrix(fset)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal((8, 12, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    batch = run_seesaw(signs, np.eye(3), v0, 400, 1e-10)
    assert passes == [8, int((batch[1] > _NEWTON_AFTER).sum())]
    assert (batch[1] > _NEWTON_AFTER).any() and batch[5].all()
    for i in range(len(v0)):
        solo = run_seesaw(signs, np.eye(3), v0[i], 400, 1e-10)
        for whole, one in zip(batch, solo, strict=True):
            assert np.array_equal(np.asarray(whole)[i], np.asarray(one)[0])
    assert seesaw(fset, restarts=2).value <= pm_upper_bound(12)


def _census_like_starts(rng, k, restarts=64):
    """A random width-4 set of k labels, its sign matrix, and `restarts` random
    unit starts plus its classical start, as `seesaw` runs them."""
    labels = tuple(int(x) for x in rng.choice(range(1, 16), size=k, replace=False))
    fset = FunctionSet.from_ints(4, labels)
    v0 = rng.standard_normal((restarts, k, 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    return sign_matrix(fset), np.concatenate((v0, quantum._game(fset).starts[-1][None]))


def _stopped_at_hand_off(values, iters, converged, owner, k):
    """The rows still running at the Newton hand-off that it stops.  Below the
    Newton cap, in a call of several points, that is every running row but
    its point's leader, the point's best row counting the converged ones;
    else every running row outside its point's _FINISH_ROWS best running
    rows.  Ties go to the lower row."""
    stopped = set()
    points = set(owner.tolist())
    leaders_only = len(points) > 1 and 2 * k <= _seesaw._NEWTON_MAX_DIM
    for point in points:
        mine = sorted(np.flatnonzero(owner == point), key=lambda i: (-values[i], i))
        running = [i for i in mine if not converged[i]]
        assert all(iters[i] == _NEWTON_AFTER for i in running)
        stopped.update(set(running) - set(mine[:1] if leaders_only else running[:_FINISH_ROWS]))
    return stopped


def _hand_off_stops(rng, ks):
    """Solve 30 census-like sets, of k cycling through ks, as one-point kernel
    calls and as calls without `owner`, where no row stops; require equal
    best values, and return how many rows the one-point calls stopped."""
    stopped = 0
    for trial in range(30):
        signs, v0 = _census_like_starts(rng, ks[trial % len(ks)])
        one_point = run_seesaw(signs, np.eye(3), v0, 10000, 1e-10, np.zeros(len(v0), dtype=int))
        every_row = run_seesaw(signs, np.eye(3), v0, 10000, 1e-10)
        assert one_point[0].max() == every_row[0].max(), trial
        stopped += int((~one_point[5] & (one_point[1] == _NEWTON_AFTER)).sum())
    return stopped


def test_the_hand_off_keeps_each_points_best_value():
    """A one-point kernel call, which finishes only its _FINISH_ROWS best running
    rows, reaches the same best value as the same rows run without `owner`,
    where every running row is finished, on random width-4 sets at k = 5 to 10."""
    assert _hand_off_stops(np.random.default_rng(24), range(5, 11)) > 0


def test_the_hand_off_keeps_each_points_best_value_above_the_cap():
    """Above k = 10 the one-point call's _FINISH_ROWS best running rows resume
    the see-saw instead of taking the finish, and the rest stop; the best
    value still equals that of a run without `owner`, on random width-4 sets
    at k = 11 to 15."""
    assert _hand_off_stops(np.random.default_rng(25), range(11, 16)) > 0


@pytest.mark.parametrize(
    "k, channels",
    [
        (10, (np.eye(3), BlochMap.dephasing(0.2, (1.0, 0.0, 0.0)).matrix())),
        # at k = 12 most noiseless or 0.2-dephased rows converge before the hand-off
        (
            12,
            (BlochMap.dephasing(0.1).matrix(), BlochMap.dephasing(0.05, (1.0, 0.0, 0.0)).matrix()),
        ),
    ],
    ids=["k10", "k12"],
)
def test_the_hand_off_stops_rows_outside_their_points_best(k, channels):
    """The rows stopped at the hand-off are exactly the running rows that are
    not their point's leader at k = 10, where the finish runs, and those
    outside their point's _FINISH_ROWS best running rows at k = 12, where it
    does not.  They come back as the trips left them after _NEWTON_AFTER
    trips, with converged False; every other row is the row of a run
    without `owner`, bit for bit."""
    rng = np.random.default_rng(7)
    signs, v0 = _census_like_starts(rng, k)
    owner = np.arange(len(v0)) % 2  # two interleaved points of 33 and 32 rows
    dmat = np.stack(channels)[owner]
    hand_off = run_seesaw(signs, dmat, v0, _NEWTON_AFTER, 1e-10)
    expected = _stopped_at_hand_off(hand_off[0], hand_off[1], hand_off[5], owner, k)
    assert {int(owner[i]) for i in expected} == {0, 1}  # both points stop rows
    ranked = run_seesaw(signs, dmat, v0, 10000, 1e-10, owner)
    every_row = run_seesaw(signs, dmat, v0, 10000, 1e-10)
    values, iters, _, _, _, converged = ranked
    assert set(np.flatnonzero(~converged & (iters == _NEWTON_AFTER)).tolist()) == expected
    for i in range(len(v0)):
        source = hand_off if i in expected else every_row
        for got, want in zip(ranked, source, strict=True):
            assert np.array_equal(np.asarray(got)[i], np.asarray(want)[i]), i


def test_the_hand_off_ranks_a_small_point_on_its_own():
    """In a batch that mixes a 40-row noiseless point and a 3-row noisy one, whose
    values rank below every row of the other, the small point's leader at
    the hand-off goes on to the finish and equals its row in a run of that
    point alone, bit for bit; its other two rows stop there, as the trips
    left them.  The noise shrinks every Bloch vector by half, so it halves
    each row's advantage over 1/2 and keeps its path."""
    rng = np.random.default_rng(3)
    signs, v0 = _census_like_starts(rng, 10, restarts=43)
    v0 = v0[:43]  # random starts only
    noisy = 0.5 * np.eye(3)
    owner = np.array([0] * 40 + [1] * 3)
    dmat = np.stack([np.eye(3), noisy])[owner]
    batch = run_seesaw(signs, dmat, v0, 10000, 1e-10, owner)
    alone = run_seesaw(signs, noisy, v0[40:], 10000, 1e-10, owner[40:])
    hand_off = run_seesaw(signs, noisy, v0[40:], _NEWTON_AFTER, 1e-10)
    assert (alone[1] > _NEWTON_AFTER).all()  # none converged before the hand-off
    assert batch[0][40:].max() < batch[0][:40].min()
    leader = int(np.argmax(hand_off[0]))
    assert not batch[5][40:][np.arange(3) != leader].any()
    for got, went_on, stopped in zip(batch, alone, hand_off, strict=True):
        for i in range(3):
            want = went_on if i == leader else stopped
            assert np.array_equal(np.asarray(got)[40 + i], np.asarray(want)[i]), i


def test_the_hand_off_sends_no_row_of_a_point_whose_leader_converged():
    """In a two-point call at k = 8, below the Newton cap, the first point's
    first row starts at the best optimum of 16 other starts, so it converges
    within a few trips and leads its point at the hand-off: that point sends
    no running row on, and each of its rows comes back as the trips left it.
    The other point sends its leader on, and only that row."""
    rng = np.random.default_rng(1)
    signs, v0 = _census_like_starts(rng, 8, restarts=48)
    solved = run_seesaw(signs, np.eye(3), v0[:16], 10000, 1e-10)
    starts = np.concatenate((solved[4][np.argmax(solved[0])][None], v0[16:48]))
    owner = np.array([0] * 17 + [1] * 16)
    batch = run_seesaw(signs, np.eye(3), starts, 10000, 1e-10, owner)
    hand_off = run_seesaw(signs, np.eye(3), starts, _NEWTON_AFTER, 1e-10)
    assert hand_off[5][0] and hand_off[1][0] < _NEWTON_AFTER
    assert hand_off[0][0] > hand_off[0][1:17].max()
    assert (~hand_off[5][1:17]).sum() > 1  # the point has running rows to stop
    went_on = np.flatnonzero(batch[1] > _NEWTON_AFTER)
    assert went_on.tolist() == [17 + int(np.argmax(hand_off[0][17:]))]
    for got, want in zip(batch, hand_off, strict=True):
        assert np.array_equal(np.asarray(got)[:17], np.asarray(want)[:17])


@st.composite
def _kernel_batches(draw):
    """A width-2 to 6 set of up to 12 labels, up to 24 rows, a budget past
    _NEWTON_AFTER and a seed: k <= 10 runs the Newton finish, k > 10 does not."""
    n = draw(st.integers(2, 6), label="n")
    labels = draw(
        st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=min(12, (1 << n) - 1)),
        label="labels",
    )
    rows = draw(st.integers(1, 24) | st.integers(17, 24), label="rows")  # often > _FINISH_ROWS
    max_iters = draw(st.integers(_NEWTON_AFTER + 1, 300), label="max_iters")
    return n, tuple(sorted(labels)), rows, max_iters, draw(st.integers(0, 2**32 - 1), label="seed")


@settings(max_examples=30, deadline=None)
@given(batch=_kernel_batches())
# 24 rows at k = 10 and k = 12: more than _FINISH_ROWS of them still run at the hand-off
@example(batch=(4, tuple(range(1, 11)), 24, 300, 0))
@example(batch=(4, tuple(range(1, 13)), 24, 300, 0))
def test_a_kernel_call_without_owner_makes_each_row_its_own_point(batch):
    """owner=None is owner=np.arange(R), array for array, and stops no row:
    every row ends converged or at max_iters."""
    n, labels, rows, max_iters, seed = batch
    signs = sign_matrix(FunctionSet.from_ints(n, labels))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal((rows, len(labels), 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    unowned = run_seesaw(signs, np.eye(3), v0, max_iters, 1e-10)
    own_points = run_seesaw(signs, np.eye(3), v0, max_iters, 1e-10, np.arange(rows))
    for got, want in zip(unowned, own_points, strict=True):
        assert np.array_equal(got, want)
    assert (unowned.converged | (unowned.iters == max_iters)).all()


def test_the_kernel_rows_keep_their_field_order():
    """`_seesaw.Rows` holds the kernel's arrays in one order, and `run_seesaw`,
    `polish`, `snap` and `quantum._solve_points` each return one; position 1
    is iters, which `perfbench/tracing.py` reads as the trip counts."""
    assert _seesaw.Rows._fields == ("values", "iters", "min_deltas", "r", "v", "converged")
    fset = representative_set(3)
    signs = sign_matrix(fset)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal((4, len(fset), 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    trips = run_seesaw(signs, np.eye(3), v0, 2, 1e-10)
    dmats = np.repeat(np.eye(3)[None], 4, axis=0)
    results = (
        trips,
        _seesaw.polish(signs, dmats, trips.take(np.arange(4)), 100),
        _seesaw.snap(signs, dmats, trips.take(np.arange(4)), 100),
        quantum._solve_points(quantum._game(fset), np.eye(3)[None], 2, 0),
    )
    for result in results:
        assert isinstance(result, _seesaw.Rows)
        assert result[1] is result.iters
        assert result.iters.dtype == np.int64 and result.converged.dtype == bool


def test_climb_takes_the_largest_step_that_raises_else_ties():
    """`_climb` scans t = 1, 1/2, ..., 2**-11 along a move, per row.

    Four copies of one point and move differ only in the value to beat: the
    lowest score on the ladder less 1e-3 (every t raises: t = 1), the
    median (half raise, not t = 1: the largest of them), the top score
    (none raises, the top ties) and the top plus 1e-3 (every t lowers: a
    lower point).  Along this move t = 1 scores lowest and the top is at
    t = 1/4, so the middle rows take the ladder past t = 1.
    """
    signs = sign_matrix(representative_set(4, "open"))
    dmat = np.repeat(BlochMap.dephasing(0.1, (0.3, 0.4, 1.0)).matrix()[None], 4, axis=0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((4, 4, 3))
    v[1:] = v[0]
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    move = np.repeat(rng.standard_normal((1, 4, 3)), 4, axis=0)
    r, _ = _seesaw.best_reply(signs, dmat, v, np.zeros((4, 8, 3)))
    ladder = []
    for t in 0.5 ** np.arange(_seesaw._HALVINGS):
        point, _ = _seesaw._unit_rows(v[:1] + t * move[:1], v[:1])
        ladder.append((point, *_seesaw.best_reply(signs, dmat[:1], point, r[:1])))
    scores = np.array([score[0] for _, _, score in ladder])
    assert len(set(scores.tolist())) == len(scores)  # a raising t differs from the next one
    median = np.median(scores)
    assert scores[0] < median and scores.argmax() == 2
    value = np.array([scores.min() - 1e-3, median, scores.max(), scores.max() + 1e-3])
    got_r, got_v, got_value = _seesaw._climb(signs, dmat, r, v, value, move)
    expect = [0, int(np.flatnonzero(scores > median)[0]), int(scores.argmax())]
    for row, pick in enumerate(expect):
        point, reply, score = ladder[pick]
        assert np.array_equal(got_v[row], point[0]) and np.array_equal(got_r[row], reply[0])
        assert got_value[row] == score[0]
    assert got_value[3] < value[3]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_shared_channel_equals_its_per_row_broadcast(data):
    """A (3, 3) channel and its (R, 3, 3) broadcast give bit-identical arrays, all six."""
    n = data.draw(st.integers(2, 6), label="n")
    labels = data.draw(
        st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=min(8, (1 << n) - 1)),
        label="labels",
    )
    rows = data.draw(st.integers(1, 6), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    signs = sign_matrix(FunctionSet.from_ints(n, tuple(sorted(labels))))
    if data.draw(st.booleans(), label="dephasing"):
        dmat = BlochMap.dephasing(float(rng.uniform(0.0, 0.5)), rng.standard_normal(3)).matrix()
    else:
        dmat = BlochMap.depolarizing(float(rng.uniform(0.0, 1.0))).matrix()
    v0 = rng.standard_normal((rows, len(labels), 3))
    v0 /= np.linalg.norm(v0, axis=2, keepdims=True)
    shared = run_seesaw(signs, dmat, v0, 300, 1e-10)
    per_row = run_seesaw(signs, np.repeat(dmat[None], rows, axis=0), v0, 300, 1e-10)
    for one, other in zip(shared, per_row, strict=True):
        assert np.array_equal(one, other)


@pytest.mark.parametrize(
    "budget",
    [
        {"restarts": 2.5},
        {"restarts": True},
        {"restarts": 2.0},
        {"max_iters": 2.5},
        {"max_iters": float("inf")},
        {"max_iters": True},
    ],
)
def test_seesaws_reject_non_integer_budget(budget):
    fset = FunctionSet.from_ints(3, (4, 2))
    with pytest.raises(InvalidInputError):
        seesaw(fset, **budget)
    with pytest.raises(InvalidInputError):
        eacc_seesaw(fset, **budget)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
def test_seesaws_reject_bad_seed(seed):
    fset = FunctionSet.from_ints(3, (4, 2))
    with pytest.raises(InvalidInputError):
        seesaw(fset, restarts=2, seed=seed)
    with pytest.raises(InvalidInputError):
        eacc_seesaw(fset, restarts=2, seed=seed)


class _FixedMap:
    def __init__(self, mat):
        self.mat = mat

    def matrix(self):
        return self.mat


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_channel_matrix_rejected(bad):
    fset = FunctionSet.from_ints(3, (4, 2))
    strategy = seesaw(fset, restarts=2).best_strategy
    mat = np.eye(3)
    mat[1, 2] = bad
    for channel in (mat, _FixedMap(mat)):
        with pytest.raises(InvalidInputError):
            seesaw(fset, restarts=2, channel=channel)
        with pytest.raises(InvalidInputError):
            evaluate_pm(strategy, fset, channel)


def test_channel_matrix_that_is_not_a_contraction_rejected():
    """A matrix that stretches some Bloch vector past the unit ball is no channel:
    5 I would score 1.707 on the open quadruple.  Every `BlochMap` passes."""
    fset = representative_set(4, "open")
    strategy = seesaw(fset, restarts=2).best_strategy
    stretched = np.eye(3)
    stretched[0, 2] = 0.1  # rows of norm at most 1.005, largest singular value 1.05
    for mat in (5 * np.eye(3), (1 + 1e-9) * np.eye(3), stretched):
        for channel in (mat, _FixedMap(mat)):
            with pytest.raises(InvalidInputError, match="Bloch ball"):
                seesaw(fset, restarts=2, channel=channel)
            with pytest.raises(InvalidInputError, match="Bloch ball"):
                evaluate_pm(strategy, fset, channel)
    clean = evaluate_pm(strategy, fset)
    for channel in (BlochMap.dephasing(0.5, (1.0, 2.0, 3.0)), BlochMap.depolarizing(0.0)):
        assert 0.5 <= evaluate_pm(strategy, fset, channel) <= clean


def test_channel_matrix_that_is_not_completely_positive_rejected():
    """A contraction need not be a channel: -I would score 1 - s, below 1/2.

    Rotations, depolarizing and dephasing maps are channels; dephasing's
    signed singular values (1, 1 - 2 lam, 1 - 2 lam) lie on a face of the
    unital-qubit tetrahedron, so rounding must not refuse them.
    """
    fset = representative_set(4, "open")
    strategy = seesaw(fset, restarts=2).best_strategy
    for mat in (-np.eye(3), np.diag([1.0, 1.0, -1.0])):
        for channel in (mat, _FixedMap(mat)):
            with pytest.raises(InvalidInputError, match="not completely positive"):
                seesaw(fset, restarts=2, channel=channel)
            with pytest.raises(InvalidInputError, match="not completely positive"):
                evaluate_pm(strategy, fset, channel)
    rng = np.random.default_rng(5)
    orthogonal = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(20)]
    rotations = [q * np.linalg.det(q) for q in orthogonal]  # det +1
    depolarizing = [BlochMap.depolarizing(lam) for lam in np.linspace(0.0, 1.0, 11)]
    dephasing = [
        BlochMap.dephasing(rng.uniform(0.0, 0.5), rng.normal(size=3)) for _ in range(200)
    ]
    dephasing += [BlochMap.dephasing(lam, (0.48, -0.6, 0.64)) for lam in (0.0, 0.5)]
    for channel in (*rotations, *depolarizing, *dephasing):
        assert 0.0 <= evaluate_pm(strategy, fset, channel) <= 1.0


def test_a_fully_depolarized_seesaw_reads_one_half():
    """Under full depolarizing nothing reaches Bob: every restart's preparations
    stay at zero, so the value is exactly 1/2 and each preparation is reported
    as the free direction (0, 0, 1)."""
    report = seesaw(representative_set(4, "open"), restarts=4, channel=BlochMap.depolarizing(1.0))
    assert report.value == 0.5
    assert report.converged
    assert set(report.best_strategy.preparations.values()) == {(0.0, 0.0, 1.0)}


def test_classical_start_vectors_refuse_a_zero_or_nan_axis(monkeypatch):
    """A sweep refuses the axis of its classical start before the search."""
    fset = representative_set(3)
    monkeypatch.setattr(quantum, "classical_optimum", None)  # the search must not run
    for axis in ((0.0, 0.0, 0.0), (np.nan, 0.0, 1.0)):
        with pytest.raises(InvalidInputError, match="axis"):
            dephasing_sweep(fset, axis=axis)


# One set of each width-4 class that stays short of pm_upper_bound(k).
_SHORT_W4 = (
    (1, 2, 3, 4),
    (1, 2, 4, 8),
    (1, 2, 3, 4, 8),
    (1, 2, 4, 8, 15),
    (1, 2, 3, 4, 8, 12),
    (1, 2, 3, 4, 5, 8, 10),
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 2, 3, 4, 5, 8, 9, 14),
)

# The census_w4 benchmark's `quantum` ops at k = 11 to 15: labels and seed.
_CENSUS_ABOVE_CAP = (
    ("0001,0010,0100,0101,0110,0111,1001,1010,1011,1101,1111", 45215),
    ("0001,0011,0100,0101,0110,0111,1000,1010,1011,1100,1110,1111", 36734),
    ("0001,0010,0100,0101,0111,1000,1001,1010,1011,1100,1101,1110,1111", 33225),
    ("0001,0010,0011,0100,0101,0110,0111,1000,1001,1010,1011,1100,1101,1111", 65154),
    ("0001,0010,0011,0100,0101,0110,0111,1000,1001,1010,1011,1100,1101,1110,1111", 43786),
    ("0010,0100,0101,0110,0111,1010,1011,1100,1101,1110,1111", 50229),
    ("0010,0011,0100,0101,0110,1000,1010,1011,1100,1101,1110,1111", 28618),
    ("0001,0010,0011,0100,0101,0110,1001,1010,1011,1100,1101,1110,1111", 46706),
    ("0001,0010,0011,0100,0101,0110,0111,1000,1001,1011,1100,1101,1110,1111", 46144),
    ("0001,0010,0011,0100,0101,0110,0111,1000,1001,1010,1011,1100,1101,1110,1111", 19162),
)


def _record_snaps(monkeypatch):
    """A list that collects what each `_seesaw.snap` call of `_solve_points` returns."""
    snaps = []

    def spy(*args):
        snaps.append(_seesaw.snap(*args))
        return snaps[-1]

    monkeypatch.setattr(quantum, "snap", spy)
    return snaps


def test_a_snapped_report_sits_on_the_bound(monkeypatch):
    """On random sets of widths 3 to 5, a `seesaw` whose snap is taken reports
    a value within 2.3e-16 of pm_upper_bound(k) that its strategy replays,
    with meets_bound and converged set, in at most _SNAP_AFTER trips plus
    _SNAP_STEPS snap steps."""
    snaps = _record_snaps(monkeypatch)
    rng = np.random.default_rng(27)
    taken = 0
    for trial in range(45):
        n = 3 + trial % 3
        k = int(rng.integers(2, min((1 << n) - 1, 18) + 1))
        labels = tuple(int(x) for x in rng.choice(np.arange(1, 1 << n), size=k, replace=False))
        fset = FunctionSet.from_ints(n, labels)
        snaps.clear()
        report = seesaw(fset, restarts=16, seed=trial)
        assert len(snaps) == (0 if k > 3 and quantum._is_sidon(labels) else 1)
        if not snaps or not quantum._meets_bound(snaps[0][0], k).any():
            continue
        taken += 1
        assert abs(report.value - pm_upper_bound(k)) <= 2.3e-16, labels
        assert abs(evaluate_pm(report.best_strategy, fset) - report.value) <= 1e-15, labels
        assert report.meets_bound and report.converged
        assert report.iterations <= quantum._SNAP_AFTER + _seesaw._SNAP_STEPS
    assert taken >= 20


@pytest.mark.parametrize("labels", [*_SHORT_W4, "open"])
def test_no_snap_is_taken_short_of_the_bound(monkeypatch, labels):
    """On the 8 width-4 classes short of pm_upper_bound(k) and on the open
    quadruple, the snap is refused on the 3 classes that are not Sidon and
    skipped on the Sidon ones, so a one-point `_solve_points` equals, bit for
    bit, a run with no snap (no budget leaves it room)."""
    fset = representative_set(4, "open") if labels == "open" else FunctionSet.from_ints(4, labels)
    game = quantum._game(fset)

    def solve():
        return [quantum._solve_points(game, np.eye(3)[None], 16, seed) for seed in (5, 6)]

    snaps = _record_snaps(monkeypatch)
    runs = solve()
    assert len(snaps) == (0 if quantum._is_sidon(fset.ints) else 2)
    assert not any(quantum._meets_bound(rows[0], len(fset)).any() for rows in snaps)
    snaps.clear()
    monkeypatch.setattr(quantum, "_SNAP_AFTER", quantum._MAX_ITERS)
    for got, want in zip(runs, solve(), strict=True):
        for mine, theirs in zip(got, want, strict=True):
            assert np.array_equal(mine, theirs)
    assert not snaps


def _random_sidon_sets() -> list[FunctionSet]:
    """Three random Sidon sets with k > 3 at each width 3 to 6 (at width 3 only
    k = 4 fits: its 7 nonzero sums hold no 10 distinct pair sums)."""
    rng = np.random.default_rng(18)
    found = []
    for n in (3, 4, 5, 6):
        count = 0
        while count < 3:
            k = 4 if n == 3 else int(rng.integers(4, 7))
            labels = [int(x) for x in rng.choice(np.arange(1, 1 << n), size=k, replace=False)]
            if quantum._is_sidon(labels):
                found.append(FunctionSet.from_ints(n, labels))
                count += 1
    return found


def _sidon_solve(fset, seed, dim):
    """A noiseless one-point solve in R^dim and its value: `seesaw`'s report
    as its repr in R^3, the `_solve_points` arrays as bytes in R^5."""
    if dim == 3:
        report = seesaw(fset, restarts=16, seed=seed)
        return repr(report), report.value
    rows = quantum._solve_points(quantum._game(fset), np.eye(dim)[None], 16, seed)
    return [row.tobytes() for row in rows], float(rows[0][0])


def test_a_sidon_set_skips_the_snap_and_reports_as_if_it_were_refused(monkeypatch):
    """On the 5 Sidon width-4 classes with k > 3 (`_SHORT_W4[:5]`) and on random
    Sidon sets at widths 3 to 6, `seesaw` never calls the snap, and its report
    equals, bit for bit, that of a run whose predicate is forced False, where
    the snap runs and is refused.  So does the solve in R^5 of the k = 6
    class.  The classes stay 1e-3 below the ceiling."""

    def no_snap(*args):
        raise AssertionError("the snap ran on a Sidon set")

    classes = [FunctionSet.from_ints(4, labels) for labels in _SHORT_W4[:5]]
    inputs = [(fset, 3) for fset in classes + _random_sidon_sets()] + [(classes[4], 5)]
    for seed, (fset, dim) in enumerate(inputs):
        assert len(fset) > dim and quantum._is_sidon(fset.ints)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "snap", no_snap)
            skipped, value = _sidon_solve(fset, seed, dim)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_is_sidon", lambda labels: False)
            snaps = _record_snaps(patch)
            tried, _ = _sidon_solve(fset, seed, dim)
        assert len(snaps) == 1 and not quantum._meets_bound(snaps[0][0], len(fset)).any()
        assert skipped == tried, fset
        if fset in classes:
            assert value <= pm_upper_bound(len(fset)) - 1e-3


def test_is_sidon_is_a_pair_sum_count_on_every_width_4_set():
    """`_is_sidon` holds exactly where no nonzero z is the sum y ^ y' of two
    labels in more than one way, counted over all 2^15 - 1 width-4 sets.

    A collision y ^ y' = w ^ w' is also y ^ w = y' ^ w' and y ^ w' = y' ^ w,
    so a predicate that skips any one pair gives the same answer; one that
    skips every pair of one label fails here."""
    masks = np.arange(1, 1 << 15)
    labels = np.arange(16)
    member = (masks[:, None] >> (labels - 1).clip(0)) & 1
    member[:, 0] = 0  # label 0 is never in a set
    # member * member[:, labels ^ z] counts each pair {y, y ^ z} twice
    pairs = np.stack([(member * member[:, labels ^ z]).sum(axis=1) // 2 for z in range(1, 16)])
    want = (pairs <= 1).all(axis=0)
    got = [quantum._is_sidon([y for y in range(1, 16) if mask >> (y - 1) & 1])
           for mask in masks.tolist()]
    assert got == want.tolist()


def test_a_call_of_several_points_never_snaps(monkeypatch):
    """A dephasing sweep's lambda = 0 point has an orthogonal channel, but a
    batch of several points runs until its slowest point is done, so the
    call tries no snap; the point still reaches the bound by its trips."""
    snaps = _record_snaps(monkeypatch)
    game = quantum._game(representative_set(3), (1.0, 0.0, 0.0))
    dmats = np.stack([BlochMap.dephasing(lam).matrix() for lam in (0.0, 0.05, 0.1)])
    sweep = quantum._solve_points(game, dmats, 8, 0)
    assert not snaps
    assert quantum._meets_bound(sweep[0][0], 3)


def test_the_snap_certifies_the_solves_above_the_newton_cap():
    """The census_w4 solves at k = 11 to 15, where the Newton finish is off,
    and `full_mubs(5)`, which has no classical start, land on the bound
    with a tangent gradient at rounding."""
    solves = [(FunctionSet.from_bitstrings(labels), seed) for labels, seed in _CENSUS_ABOVE_CAP]
    for fset, seed in solves + [(full_mubs(5), 0)]:
        report = seesaw(fset, restarts=64, seed=seed)
        assert report.meets_bound, fset
        assert report.tangent_grad <= 1e-9, fset


@pytest.mark.parametrize("max_iters", [2, 3, 4, 5, 6])
def test_the_snap_keeps_within_max_iters(max_iters):
    """Trips plus snap steps never exceed max_iters on sets at the bound;
    with max_iters = 2 no step fits, and the snap is skipped."""
    census = FunctionSet.from_bitstrings(_CENSUS_ABOVE_CAP[1][0])
    for fset in (representative_set(2), representative_set(3), representative_set(5), census):
        report = seesaw(fset, restarts=8, max_iters=max_iters)
        assert report.iterations <= max_iters, (fset, report.iterations)


def test_a_snapped_point_stops_its_other_rows(monkeypatch):
    """A one-point solve whose snap is taken runs the kernel once, for
    _SNAP_AFTER trips on its cold rows, and reports the snapped row."""
    calls = []

    def spy(signs, dmat, v0, max_iters, tol, owner=None):
        calls.append((len(v0), max_iters))
        return run_seesaw(signs, dmat, v0, max_iters, tol, owner)

    monkeypatch.setattr(quantum, "run_seesaw", spy)
    report = seesaw(representative_set(3), restarts=16)
    assert calls == [(17, quantum._SNAP_AFTER)]
    assert report.meets_bound and report.converged
    assert report.iterations <= quantum._SNAP_AFTER + _seesaw._SNAP_STEPS


def test_a_snapped_row_is_polished(monkeypatch):
    """An accepted snap is finished by the Newton polish too.  On these
    starts (one generator per start, seeded (seed, j)) the snap leaves its
    row on the bound with a tangent gradient of 7.2e-8 and a positive top
    eigenvalue; polished, the row is a certified strict local maximum."""

    def per_start(k, restarts, seed, classical):
        draws = np.array([np.random.default_rng((seed, j)).standard_normal((k, 3))
                          for j in range(restarts)])
        draws /= np.linalg.norm(draws, axis=2, keepdims=True)
        return np.concatenate((draws, np.reshape(classical, (-1, k, 3))))

    monkeypatch.setattr(quantum, "_pm_starts", per_start)
    snaps = _record_snaps(monkeypatch)
    fset = FunctionSet.from_bitstrings("0100,0110,1000,1001,1010,1011,1101,1111")
    report = seesaw(fset, restarts=16, seed=41859)
    assert len(snaps) == 1 and quantum._meets_bound(snaps[0][0], 8).any()
    assert report.meets_bound and report.converged
    assert report.tangent_grad <= 1e-9
    assert report.top_hessian_eig < 0


def test_meets_bound_reads_the_value_against_the_bound():
    """meets_bound is True where the value reaches pm_upper_bound(k) within
    4 ulps and False short of it; a rotated channel snaps too, and
    `eacc_seesaw` leaves the field None."""
    assert seesaw(representative_set(3), restarts=4).meets_bound is True
    assert seesaw(representative_set(4, "open"), restarts=4).meets_bound is False
    dephased = seesaw(representative_set(3), restarts=4, channel=BlochMap.dephasing(0.1))
    assert dephased.meets_bound is False
    rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert seesaw(representative_set(5), restarts=4, channel=rotation).meets_bound is True
    assert eacc_seesaw(representative_set(2), restarts=2).meets_bound is None
    bound = pm_upper_bound(3)
    assert not quantum._meets_bound(bound - 5 * np.spacing(bound), 3)
    assert quantum._meets_bound(bound - 4 * np.spacing(bound), 3)
