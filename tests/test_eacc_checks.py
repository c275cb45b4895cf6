"""How entanglement-assisted strategies are completed and checked.

Every builder completes its outcome-0 effects as 1 - A^x_0 and 1 - B^{ω,y}_0,
and `validate_strategy` names the first faulty effect pair in row order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grac import (
    EACCStrategy,
    InvalidEffectError,
    classical_embed,
    classical_optimum,
    eacc_seesaw,
    random_strategy,
    representative_set,
    seesaw,
    validate_strategy,
)
from grac.eacc import _clifford_embed
from grac.mubs import sign_matrix

_SET = representative_set(3)  # labels 1, 2, 3 on width 3


def _strategy():
    return random_strategy(_SET, local_dim=2, rng=np.random.default_rng(3))


def _break(pair: np.ndarray, outcome: int, fault: str) -> None:
    """Spoil one outcome of an effect pair in place, with one fault."""
    if fault == "hermitian":
        pair[outcome, 0, 1] += 1e-3j
    elif fault == "positive":
        # -P and 1 + P: Hermitian and complete, but outcome is not positive
        pair[outcome] = -pair[outcome]
        pair[1 - outcome] = np.eye(pair.shape[-1]) - pair[outcome]
    else:
        pair[outcome] += 1e-3 * np.eye(pair.shape[-1])


_WORDS = {
    "hermitian": "outcome {z} is not Hermitian",
    "positive": "outcome {z} is not positive semidefinite",
    "complete": "outcomes do not sum to the identity",
}


def _refusal(alice: np.ndarray, bob: np.ndarray) -> str:
    strat = _strategy()
    with pytest.raises(InvalidEffectError) as info:
        validate_strategy(EACCStrategy(strat.n, strat.labels, strat.state, alice, bob))
    return str(info.value)


@pytest.mark.parametrize("fault", sorted(_WORDS))
@pytest.mark.parametrize("outcome", [0, 1])
def test_a_bad_alice_effect_is_named(outcome, fault):
    strat = _strategy()
    alice = strat.alice.copy()
    _break(alice[5], outcome, fault)
    words = _WORDS[fault].format(z=outcome)
    assert _refusal(alice, strat.bob) == f"alice effect x=5 {words}"


@pytest.mark.parametrize("fault", sorted(_WORDS))
@pytest.mark.parametrize("outcome", [0, 1])
def test_a_bad_bob_effect_is_named(outcome, fault):
    strat = _strategy()
    bob = strat.bob.copy()
    _break(bob[1, 2], outcome, fault)  # ω = 1, third label: 3
    words = _WORDS[fault].format(z=outcome)
    assert _refusal(strat.alice, bob) == f"bob effect (ω=1, label=3) {words}"


def test_the_first_bad_effect_in_row_order_is_named():
    strat = _strategy()
    alice, bob = strat.alice.copy(), strat.bob.copy()
    _break(alice[3], 0, "hermitian")
    _break(alice[1], 1, "complete")
    _break(bob[0, 0], 0, "positive")
    assert _refusal(alice, bob) == "alice effect x=1 outcomes do not sum to the identity"
    # Alice's effects are checked before Bob's, and ω = 0 before ω = 1
    _break(bob[1, 0], 0, "hermitian")
    expected = "bob effect (ω=0, label=1) outcome 0 is not positive semidefinite"
    assert _refusal(strat.alice, bob) == expected


def _loop_refusal(strat: EACCStrategy) -> str | None:
    """The reference: each effect pair tested on its own, in row order."""

    def pair_fault(pair):
        for z in (0, 1):
            if np.abs(pair[z] - pair[z].conj().T).max() > 1e-10:
                return f"outcome {z} is not Hermitian"
            if np.linalg.eigvalsh(pair[z]).min() < -1e-10:
                return f"outcome {z} is not positive semidefinite"
        if np.abs(pair[0] + pair[1] - np.eye(pair.shape[-1])).max() > 1e-10:
            return "outcomes do not sum to the identity"
        return None

    named = [(f"alice effect x={x}", strat.alice[x]) for x in range(len(strat.alice))]
    named += [
        (f"bob effect (ω={omega}, label={r})", strat.bob[omega, j])
        for omega in (0, 1)
        for j, r in enumerate(strat.labels)
    ]
    for name, pair in named:
        fault = pair_fault(pair)
        if fault:
            return f"{name} {fault}"
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_batched_check_names_what_the_loop_names(data):
    d = data.draw(st.integers(1, 4), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
    strat = random_strategy(_SET, local_dim=d, rng=rng)
    alice, bob = strat.alice.copy(), strat.bob.copy()
    for _ in range(data.draw(st.integers(0, 3), label="faults")):
        pairs = (alice if data.draw(st.booleans(), label="alice") else bob).reshape(-1, 2, d, d)
        pair = pairs[data.draw(st.integers(0, len(pairs) - 1), label="pair")]
        fault = data.draw(st.sampled_from(sorted(_WORDS)), label="fault")
        if fault == "hermitian" and d == 1:
            fault = "complete"
        _break(pair, data.draw(st.integers(0, 1), label="outcome"), fault)
    broken = EACCStrategy(strat.n, strat.labels, strat.state, alice, bob)
    expected = _loop_refusal(broken)
    if expected is None:
        validate_strategy(broken)
    else:
        with pytest.raises(InvalidEffectError) as info:
            validate_strategy(broken)
        assert str(info.value) == expected


def _builds(d: int):
    """(name, strategy) of every strategy builder at local dimension d."""
    _, classical = classical_optimum(_SET, max_strategies=1)
    one_qubit = seesaw(_SET, restarts=2, max_iters=50).best_strategy
    k = len(_SET)
    return [
        ("random", random_strategy(_SET, local_dim=d, rng=np.random.default_rng(d))),
        ("classical", classical_embed(classical[0], _SET, local_dim=d)),
        ("jordan-wigner", _clifford_embed(_SET, sign_matrix(_SET) / np.sqrt(k), np.eye(k), d)),
        ("qubit", _clifford_embed(_SET, one_qubit.prep_array(), one_qubit.meas_array(_SET), d)),
        ("seesaw", eacc_seesaw(_SET, local_dim=d, restarts=2, max_iters=20).best_strategy),
    ]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_builder_completes_its_effects_bit_for_bit(d):
    eye = np.eye(d)
    for name, strat in _builds(d):
        assert strat.dims == (d, d), name
        assert np.array_equal(strat.alice[:, 1], eye - strat.alice[:, 0]), name
        assert np.array_equal(strat.bob[:, :, 1], eye - strat.bob[:, :, 0]), name
        validate_strategy(strat)
