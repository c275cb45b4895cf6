"""Prepare-and-measure strategies, the see-saw driver, and its invariants."""

import math

import numpy as np
import pytest

from grac import (
    FunctionSet,
    InvalidInputError,
    PMStrategy,
    WidthMismatchError,
    classical_optimum,
    classical_start_vectors,
    evaluate_pm,
    full_mubs,
    norm_cancellation_check,
    pm_upper_bound,
    seesaw,
    sign_matrix,
)


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
    with pytest.raises(ValueError):
        pm_upper_bound(0)


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
    vecs = classical_start_vectors(fset, axis=(1.0, 0.0, 0.0))
    assert vecs.shape == (7, 3)
    assert np.allclose(np.abs(vecs[:, 0]), 1.0)
    assert np.allclose(vecs[:, 1:], 0.0)


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
    with pytest.raises(ValueError):
        seesaw(fset, tol=0.0)


def test_seesaw_rejects_non_finite_tolerance():
    for bad in (float("nan"), float("inf"), -1e-10):
        with pytest.raises(InvalidInputError):
            seesaw(full_mubs(3), tol=bad)


def test_pm_strategy_from_dict_rejects_empty_preparations():
    with pytest.raises(InvalidInputError):
        PMStrategy.from_dict({"preparations": {}, "measurements": {}})
