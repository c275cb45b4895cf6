"""Entanglement-assisted strategies: validation, evaluation, see-saw, Bell reading."""

import numpy as np
import pytest

from grac import (
    DimensionMismatchError,
    EACCStrategy,
    FunctionSet,
    InvalidEffectError,
    InvalidInputError,
    WidthMismatchError,
    classical_embed,
    classical_optimum,
    eacc_seesaw,
    eacc_to_bell,
    evaluate_eacc,
    full_mubs,
    pm_upper_bound,
    random_strategy,
    representative_set,
    validate_strategy,
)


def test_classical_embed_recovers_exact_optimum():
    fset = full_mubs(3)
    value, strategies = classical_optimum(fset, max_strategies=1)
    emb = classical_embed(strategies[0], fset)
    validate_strategy(emb)
    assert evaluate_eacc(emb, fset) == pytest.approx(value.value, abs=1e-12)
    assert evaluate_eacc(emb, fset) == pytest.approx(37 / 56, abs=1e-12)


def test_classical_embed_other_dims():
    fset = representative_set(3)
    value, strategies = classical_optimum(fset, max_strategies=1)
    for d in (2, 3, 4):
        emb = classical_embed(strategies[0], fset, local_dim=d)
        assert emb.dims == (d, d)
        assert evaluate_eacc(emb, fset) == pytest.approx(value.value, abs=1e-12)


def test_random_strategy_is_valid():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        strat = random_strategy(representative_set(3), local_dim=d, rng=rng)
        validate_strategy(strat)
        val = evaluate_eacc(strat, representative_set(3))
        assert 0.0 <= val <= 1.0


def test_validate_rejects_bad_effects():
    fset = representative_set(2)
    strat = random_strategy(fset, rng=np.random.default_rng(0))
    # break completeness on one Alice pair
    alice = strat.alice.copy()
    alice[0, 1] = alice[0, 0]
    broken = EACCStrategy(strat.n, strat.labels, strat.state, alice, strat.bob)
    with pytest.raises(InvalidEffectError):
        validate_strategy(broken)
    # non-positive effect
    alice = strat.alice.copy()
    alice[1, 0] = -np.eye(2)
    alice[1, 1] = 2 * np.eye(2)
    broken = EACCStrategy(strat.n, strat.labels, strat.state, alice, strat.bob)
    with pytest.raises(InvalidEffectError):
        validate_strategy(broken)
    # state trace off
    broken = EACCStrategy(strat.n, strat.labels, 2 * strat.state, strat.alice, strat.bob)
    with pytest.raises(InvalidEffectError):
        validate_strategy(broken)


def test_strategy_shape_validation():
    fset = representative_set(2)
    strat = random_strategy(fset, rng=np.random.default_rng(1))
    with pytest.raises(DimensionMismatchError):
        EACCStrategy(strat.n, strat.labels, strat.state[:2, :2], strat.alice, strat.bob)
    with pytest.raises(DimensionMismatchError):
        EACCStrategy(strat.n, strat.labels, strat.state, strat.alice[:, :1], strat.bob)


def test_evaluate_mismatches():
    pair = representative_set(2)
    triple = representative_set(3)
    strat = random_strategy(pair, rng=np.random.default_rng(2))
    with pytest.raises(DimensionMismatchError):
        evaluate_eacc(strat, triple)
    wide = FunctionSet.from_ints(4, (1, 2))
    with pytest.raises(WidthMismatchError):
        evaluate_eacc(strat, wide)


def test_strategy_roundtrip():
    fset = representative_set(3)
    strat = random_strategy(fset, local_dim=3, rng=np.random.default_rng(9))
    back = EACCStrategy.from_dict(strat.to_dict())
    assert back.n == strat.n
    assert back.labels == strat.labels
    assert np.allclose(back.state, strat.state)
    assert np.allclose(back.alice, strat.alice)
    assert np.allclose(back.bob, strat.bob)
    assert evaluate_eacc(back, fset) == pytest.approx(evaluate_eacc(strat, fset), abs=1e-14)


def test_bell_reading_matches_communication_value():
    rng = np.random.default_rng(12)
    sets = [representative_set(2), representative_set(3), representative_set(4, "open")]
    for i in range(24):
        fset = sets[i % len(sets)]
        d = (2, 3)[i % 2]
        strat = random_strategy(fset, local_dim=d, rng=rng)
        rep = eacc_to_bell(strat, fset)
        assert rep.bell_value == pytest.approx(rep.eacc_value, abs=1e-10)


def test_eacc_seesaw_pair_reaches_optimum():
    fset = representative_set(2)
    value, strat = eacc_seesaw(fset, local_dim=2, restarts=6, seed=0)
    assert value == pytest.approx(pm_upper_bound(2), abs=1e-6)
    validate_strategy(strat)
    assert evaluate_eacc(strat, fset) == pytest.approx(value, abs=1e-9)


def test_eacc_seesaw_full_output_and_floor():
    fset = representative_set(4, "xor-closed")
    value, strat, info = eacc_seesaw(fset, local_dim=2, restarts=4, seed=0, full_output=True)
    assert value == pytest.approx(0.75, abs=1e-6)
    assert value >= classical_optimum(fset)[0].value - 1e-9
    assert info["min_delta"] > -1e-8
    assert info["restarts_used"] >= 4
    assert info["iterations"] >= 1


def test_eacc_seesaw_dimension_validation():
    fset = representative_set(2)
    with pytest.raises(DimensionMismatchError):
        eacc_seesaw(fset, local_dim=5)
    with pytest.raises(ValueError):
        eacc_seesaw(fset, restarts=0)


def test_eacc_open_quadruple_needs_dimension_four():
    """At 4x4 the open quadruple reaches 3/4; the winning strategy checks out."""
    fset = representative_set(4, "open")
    value, strat = eacc_seesaw(fset, local_dim=4, restarts=64, seed=0)
    assert value == pytest.approx(0.75, abs=1e-6)
    validate_strategy(strat)
    rep = eacc_to_bell(strat, fset)
    assert rep.bell_value == pytest.approx(rep.eacc_value, abs=1e-10)


def test_eacc_seesaw_rejects_bad_tolerance():
    fset = representative_set(2)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            eacc_seesaw(fset, restarts=1, tol=bad)
