"""Exact classical optima, explicit strategies, and RAC lifts."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grac import (
    BooleanFn,
    CardinalityMismatchError,
    ClassicalStrategy,
    FunctionSet,
    GracError,
    InvalidInputError,
    ParityLabel,
    QuadrupleClass,
    RACStrategy,
    Rational,
    WidthMismatchError,
    WidthOutOfRangeError,
    best_decoding,
    best_lift,
    classical_optimum,
    classify_quadruple,
    evaluate_classical,
    full_mubs,
    identity_decoding,
    lift_rac_strategy,
    majority_encoding,
    optimal_rac_strategy,
    per_label_wins,
    rac_optimum,
    rac_value,
    representative_set,
    sign_matrix,
)


def test_rational():
    r = Rational(37, 56)
    assert r.value == 37 / 56
    assert r.as_fraction() == Fraction(37, 56)
    assert str(r) == "37/56"
    assert float(r) == 37 / 56
    # stays unreduced
    assert (Rational(32, 56).wins, Rational(32, 56).total) == (32, 56)
    with pytest.raises(ValueError):
        Rational(5, 4)
    with pytest.raises(ValueError):
        Rational(-1, 4)
    with pytest.raises(ValueError):
        Rational(0, 0)


def test_majority_encoding():
    enc = majority_encoding(3)
    assert enc.table == 232  # ones at 011, 101, 110, 111
    assert enc.bits() == "00010111"
    enc2 = majority_encoding(2)
    assert enc2.bits() == "0001"  # ties at weight 1 send 0


def test_strategy_roundtrip_and_decode_error():
    fset = full_mubs(3)
    strat = ClassicalStrategy(majority_encoding(3), identity_decoding(fset, invert=(7,)))
    d = strat.to_dict()
    back = ClassicalStrategy.from_dict(d)
    assert back.encoding == strat.encoding
    assert back.decoding == strat.decoding
    assert strat.decode(7, 0) == 1
    assert strat.decode(7, 1) == 0
    with pytest.raises(ValueError):
        strat.decode(7, 2)


def test_explicit_strategies_on_full_set():
    """The three hand-written strategies and their per-question scores."""
    fset = full_mubs(3)
    maj = majority_encoding(3)

    plain = ClassicalStrategy(maj, identity_decoding(fset))
    assert evaluate_classical(plain, fset) == Rational(32, 56)
    wins = per_label_wins(plain, fset)
    assert {r: w.wins for r, w in wins.items()} == {4: 6, 2: 6, 1: 6, 6: 4, 5: 4, 3: 4, 7: 2}

    flipped = ClassicalStrategy(maj, identity_decoding(fset, invert=(7,)))
    assert evaluate_classical(flipped, fset) == Rational(36, 56)
    wins = per_label_wins(flipped, fset)
    assert wins[7] == Rational(6, 8)

    blue = ClassicalStrategy(BooleanFn(3, 112), identity_decoding(fset, invert=(2, 1, 7)))
    assert evaluate_classical(blue, fset) == Rational(37, 56)
    wins = per_label_wins(blue, fset)
    assert {r: w.wins for r, w in wins.items()} == {4: 7, 2: 5, 1: 5, 6: 5, 5: 5, 3: 5, 7: 5}


def test_best_decoding_beats_identity():
    fset = full_mubs(3)
    maj = majority_encoding(3)
    dec, val = best_decoding(maj, fset)
    assert val == Rational(36, 56)  # finds the flip on 111 by itself
    strat = ClassicalStrategy(maj, dec)
    assert evaluate_classical(strat, fset) == val


def test_best_decoding_handles_empty_fiber():
    fset = FunctionSet.from_ints(3, (4,))
    constant = BooleanFn(3, 0)  # never sends 1
    dec, val = best_decoding(constant, fset)
    assert val == Rational(4, 8)
    strat = ClassicalStrategy(constant, dec)
    assert evaluate_classical(strat, fset) == val


def test_classical_optimum_full_set():
    fset = full_mubs(3)
    value, strategies = classical_optimum(fset)
    assert value == Rational(37, 56)
    assert 1 <= len(strategies) <= 16
    for strat in strategies:
        assert evaluate_classical(strat, fset) == value


def test_classical_optimum_value_depends_only_on_cardinality_and_class():
    expected = {
        2: Fraction(3, 4),
        3: Fraction(3, 4),
        5: Fraction(7, 10),
        6: Fraction(2, 3),
        7: Fraction(37, 56),
    }
    for k, ref in expected.items():
        for combo in combinations(range(1, 8), k):
            fset = FunctionSet.from_ints(3, combo)
            assert classical_optimum(fset, max_strategies=1)[0].as_fraction() == ref
    for combo in combinations(range(1, 8), 4):
        fset = FunctionSet.from_ints(3, combo)
        ref = (
            Fraction(3, 4)
            if classify_quadruple(fset) is QuadrupleClass.XOR_CLOSED
            else Fraction(11, 16)
        )
        assert classical_optimum(fset, max_strategies=1)[0].as_fraction() == ref


def test_classical_optimum_small_widths():
    assert classical_optimum(full_mubs(1))[0] == Rational(2, 2)
    assert classical_optimum(full_mubs(2))[0].as_fraction() == Fraction(3, 4)
    assert classical_optimum(FunctionSet.from_ints(2, (1, 2)))[0].as_fraction() == Fraction(3, 4)


@pytest.mark.parametrize("max_strategies", [1, 16])
def test_classical_optimum_allocates_under_a_mebibyte_at_k15(max_strategies):
    """The search builds one sign row per translation orbit: 2^(k-r) = 2^11
    rows at k = 15, not the 2^14 that take 4 MiB with their absolute values."""
    fset = full_mubs(4)
    tracemalloc.start()
    try:
        classical_optimum(fset, max_strategies=max_strategies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_classical_optimum_width_cap():
    with pytest.raises(WidthOutOfRangeError):
        classical_optimum(full_mubs(5))


def test_classical_optimum_rejects_max_strategies_below_one():
    for bad in (0, -1):
        with pytest.raises(InvalidInputError):
            classical_optimum(full_mubs(3), max_strategies=bad)
    assert issubclass(InvalidInputError, GracError)
    assert issubclass(InvalidInputError, ValueError)


def test_evaluate_width_mismatch():
    fset = full_mubs(3)
    strat = ClassicalStrategy(majority_encoding(2), identity_decoding(fset))
    with pytest.raises(WidthMismatchError):
        evaluate_classical(strat, fset)
    with pytest.raises(WidthMismatchError):
        per_label_wins(strat, fset)
    with pytest.raises(WidthMismatchError):
        best_decoding(majority_encoding(2), fset)


def test_rac_optimum_closed_form():
    refs = {
        2: Fraction(3, 4),
        3: Fraction(3, 4),
        4: Fraction(11, 16),
        5: Fraction(11, 16),
        6: Fraction(21, 32),
        7: Fraction(21, 32),
    }
    for k, ref in refs.items():
        opt = rac_optimum(k)
        assert opt.as_fraction() == ref
        assert opt.total == k << k
        # the majority strategy attains the closed form
        assert rac_value(optimal_rac_strategy(k)).as_fraction() == ref
    for k in range(1, 11):  # every size RACStrategy accepts
        assert rac_value(optimal_rac_strategy(k)) == rac_optimum(k)


def test_rac_identity_k1():
    rac = RACStrategy(1, 0b10, ((0, 1),))
    assert rac_value(rac) == Rational(2, 2)
    assert rac_optimum(1).as_fraction() == 1


def test_rac_validation():
    with pytest.raises(ValueError):
        RACStrategy(0, 0, ())
    with pytest.raises(ValueError):
        RACStrategy(2, 1 << 16, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        RACStrategy(2, 0, ((0, 1),))


def test_lift_identity_rac_to_singleton():
    rac = RACStrategy(1, 0b10, ((0, 1),))
    fset = FunctionSet.from_ints(3, (4,))
    strat = lift_rac_strategy(rac, fset)
    assert evaluate_classical(strat, fset) == Rational(8, 8)


def test_lift_two_bit_rac():
    rac = optimal_rac_strategy(2)
    fset = FunctionSet.from_ints(3, (4, 2))
    strat = lift_rac_strategy(rac, fset)
    assert evaluate_classical(strat, fset).as_fraction() == Fraction(3, 4)


def test_lift_three_bit_rac():
    rac = optimal_rac_strategy(3)
    fset = FunctionSet.from_ints(3, (4, 2, 1))
    strat = lift_rac_strategy(rac, fset)
    assert evaluate_classical(strat, fset).as_fraction() == Fraction(3, 4)


def test_lift_cardinality_mismatch():
    rac = optimal_rac_strategy(2)
    with pytest.raises(CardinalityMismatchError):
        lift_rac_strategy(rac, full_mubs(3))
    with pytest.raises(ValueError):
        lift_rac_strategy(rac, FunctionSet.from_ints(3, (4, 2)), perm=(0, 0))


def test_best_lift_never_below_plain_lift():
    for ints in [(1, 2, 4, 7), (1, 2, 3, 4), (1, 2, 3, 4, 5)]:
        fset = FunctionSet.from_ints(3, ints)
        rac = optimal_rac_strategy(len(ints))
        plain = evaluate_classical(lift_rac_strategy(rac, fset), fset)
        _, best = best_lift(rac, fset)
        assert best.wins >= plain.wins


def test_grac_optimum_dominates_lifted_rac():
    """Lifting the optimal RAC can never beat the true classical optimum."""
    for ints in [(1, 2), (1, 2, 4), (1, 2, 3, 4), (1, 2, 4, 7), (1, 2, 3, 4, 5)]:
        fset = FunctionSet.from_ints(3, ints)
        _, lifted = best_lift(optimal_rac_strategy(len(ints)), fset)
        optimum, _ = classical_optimum(fset, max_strategies=1)
        assert optimum.wins >= lifted.wins


# ---------------------------------------------------------------------------
# Reference: the exhaustive encoding scan that classical_optimum replaced.

def _scan_optimum(fset, max_strategies):
    """Score all 2^(2^n) encodings with their majority decode in one pass."""
    n = fset.n
    m = 1 << n
    half = m // 2
    tables = np.arange(1 << m, dtype=np.uint32)
    bits = ((tables[:, None] >> np.arange(m, dtype=np.uint32)[None, :]) & 1).astype(
        np.int64
    )  # (2^m, m): bit x of each encoding
    fmat = ((1 - sign_matrix(fset)) // 2).astype(np.int64)  # (m, k) of f_y(x)
    n1 = bits.sum(axis=1)  # inputs sent as ω=1, per encoding
    n11 = bits @ fmat  # (2^m, k): ω=1 and f_y=1
    n10 = n1[:, None] - n11
    n01 = half - n11  # questions are balanced parities
    n00 = m - n1[:, None] - half + n11
    wins = np.maximum(n00, n01).sum(axis=1) + np.maximum(n10, n11).sum(axis=1)
    best = int(wins.max())
    strategies = []
    for t in np.flatnonzero(wins == best)[:max_strategies]:
        enc = BooleanFn(n, int(t))
        strategies.append(ClassicalStrategy(enc, best_decoding(enc, fset)[0]))
    return Rational(best, m * len(fset)), strategies


def _assert_matches_scan(fset, limits):
    """classical_optimum equals the scan, value and strategies, at each limit."""
    value, reference = _scan_optimum(fset, max(limits))
    for limit in limits:
        got, strategies = classical_optimum(fset, max_strategies=limit)
        assert got == value
        assert [s.to_dict() for s in strategies] == [s.to_dict() for s in reference[:limit]]


def test_sign_search_matches_scan_on_all_width3_subsets():
    for k in range(1, 8):
        for combo in combinations(range(1, 8), k):
            _assert_matches_scan(FunctionSet.from_ints(3, combo), (1, 16, 1000))


def test_sign_search_matches_scan_on_width4_sample():
    rng = random.Random("width-4 oracle sample")
    for k in range(2, 16):
        fset = FunctionSet.from_ints(4, rng.sample(range(1, 16), k))
        _assert_matches_scan(fset, (1, 16, 200))
    # Here the optimal sign vectors leave one or two inputs free, so the cubes
    # differ in size; a limit past all 2752 optima must return each one once.
    _assert_matches_scan(FunctionSet.from_ints(4, range(1, 13)), (5000,))


@settings(max_examples=25, deadline=None)
@given(
    labels=st.sets(st.integers(1, 15), min_size=1, max_size=15),
    limit=st.integers(1, 64),
)
def test_sign_search_matches_scan_property(labels, limit):
    _assert_matches_scan(FunctionSet.from_ints(4, sorted(labels)), (limit,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: classical_optimum(full_mubs(3), max_strategies=2.5),
        lambda: classical_optimum(full_mubs(3), max_strategies="a"),
        lambda: classical_optimum(full_mubs(3), max_strategies=True),
        lambda: rac_optimum(0),
    ],
    ids=["max_strategies=2.5", "max_strategies='a'", "max_strategies=True", "rac_optimum(0)"],
)
def test_non_integer_or_nonpositive_counts_are_refused(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: full_mubs(2.5),
        lambda: BooleanFn(3.0, 1),
        lambda: representative_set(2.5),
        lambda: ParityLabel(3, 1.5),
        lambda: BooleanFn(3, 1.5),
        lambda: RACStrategy(2.5, 0, ((0, 1), (0, 1))),
        lambda: RACStrategy(2, 1.5, ((0, 1), (0, 1))),
        lambda: optimal_rac_strategy(2.5),
        lambda: RACStrategy(1, 0b10, ((0,),)),
        lambda: RACStrategy(1, 0b10, ((0, 2),)),
        lambda: lift_rac_strategy(
            optimal_rac_strategy(3), representative_set(3), perm=(0.0, 1.0, 2.0)
        ),
        lambda: identity_decoding(representative_set(3), invert=("x",)),
        lambda: identity_decoding(representative_set(3), invert=(5,)),
    ],
    ids=[
        "full_mubs(2.5)",
        "BooleanFn(3.0,1)",
        "representative_set(2.5)",
        "ParityLabel(3,1.5)",
        "BooleanFn(3,1.5)",
        "RACStrategy(2.5)",
        "RAC encoding 1.5",
        "optimal_rac_strategy(2.5)",
        "RAC entry (0,)",
        "RAC entry (0,2)",
        "float perm",
        "invert=('x',)",
        "invert label not in set",
    ],
)
def test_malformed_widths_labels_and_rac_entries_are_refused(call):
    with pytest.raises(InvalidInputError):
        call()


def _with_decoding(key, z):
    """A width-2 strategy's dict with decoding[key] set to z."""
    fset = representative_set(2)
    d = ClassicalStrategy(majority_encoding(2), identity_decoding(fset)).to_dict()
    return {**d, "decoding": {**d["decoding"], key: z}}


@pytest.mark.parametrize(
    "call",
    [
        lambda: ClassicalStrategy.from_dict(_with_decoding("01:0", 2)),
        lambda: ClassicalStrategy.from_dict(_with_decoding("01:0", True)),
        lambda: ClassicalStrategy.from_dict(_with_decoding("01:0", 0.0)),
        lambda: ClassicalStrategy.from_dict(_with_decoding("01:2", 0)),
        lambda: ClassicalStrategy(majority_encoding(2), {(1, 0): True, (1, 1): 1}),
        lambda: ClassicalStrategy(majority_encoding(2), {(1, 0): 0, (1, 1): -1}),
        lambda: ClassicalStrategy(majority_encoding(2), {(1, True): 0, (1, 0): 1}),
        lambda: ClassicalStrategy(majority_encoding(2), {1: 0}),
    ],
    ids=[
        "guess 2",
        "guess True",
        "guess 0.0",
        "message 2",
        "guess True, built",
        "guess -1, built",
        "message True, built",
        "key not a pair",
    ],
)
def test_a_classical_guess_or_message_that_is_not_a_bit_is_refused(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "n, error",
    [
        (2.5, InvalidInputError),
        (True, InvalidInputError),
        (0, WidthOutOfRangeError),
        (7, WidthOutOfRangeError),
        (40, WidthOutOfRangeError),  # would build a 2^40-entry table before the check
    ],
)
def test_majority_encoding_checks_the_width_first(n, error):
    with pytest.raises(error):
        majority_encoding(n)


# ---------------------------------------------------------------------------
# Reference: the per-input loops that the parity-table counts replaced.

def _parity(r, x):
    return (r & x).bit_count() & 1


def _wins_by_loop(strategy, fset):
    """Wins of each label, one input at a time."""
    return {
        r: sum(
            strategy.decode(r, strategy.encoding(x)) == _parity(r, x)
            for x in range(1 << fset.n)
        )
        for r in fset.ints
    }


def _best_decoding_by_loop(encoding, fset):
    """Majority vote on each message fiber; ties and empty fibers decode to 0."""
    m = 1 << fset.n
    fibers = {omega: [x for x in range(m) if encoding(x) == omega] for omega in (0, 1)}
    decoding = {}
    wins = 0
    for r in fset.ints:
        for omega in (0, 1):
            ones = sum(_parity(r, x) for x in fibers[omega])
            zeros = len(fibers[omega]) - ones
            decoding[(r, omega)] = 1 if ones > zeros else 0
            wins += max(ones, zeros)
    return decoding, wins


def _lifted_table_by_loop(rac, fset, perm):
    """Encoding table of the lift: the RAC's message on each input's derived string."""
    k = len(fset)
    table = 0
    for x in range(1 << fset.n):
        derived = 0
        for p in range(k):
            derived |= _parity(fset.ints[perm[p]], x) << (k - 1 - p)
        table |= rac.encode(derived) << x
    return table


def _draw_set(data, max_size):
    n = data.draw(st.integers(1, 6), label="n")
    labels = data.draw(
        st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_size), label="labels"
    )
    return FunctionSet.from_ints(n, sorted(labels))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_counts_match_per_input_loops(data):
    fset = _draw_set(data, max_size=63)
    m, k = 1 << fset.n, len(fset)
    enc = BooleanFn(fset.n, data.draw(st.integers(0, (1 << m) - 1), label="encoding"))
    guesses = data.draw(st.lists(st.integers(0, 1), min_size=2 * k, max_size=2 * k))
    keys = [(r, omega) for r in fset.ints for omega in (0, 1)]
    strat = ClassicalStrategy(enc, dict(zip(keys, guesses)))

    wins = _wins_by_loop(strat, fset)
    assert per_label_wins(strat, fset) == {r: Rational(w, m) for r, w in wins.items()}
    assert evaluate_classical(strat, fset) == Rational(sum(wins.values()), m * k)
    decoding, best = _best_decoding_by_loop(enc, fset)
    assert best_decoding(enc, fset) == (decoding, Rational(best, m * k))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lift_matches_per_input_loop(data):
    fset = _draw_set(data, max_size=10)
    k = len(fset)
    bit = st.integers(0, 1)
    rac_encoding = data.draw(st.integers(0, (1 << (1 << k)) - 1), label="rac encoding")
    rac_decoding = data.draw(st.lists(st.tuples(bit, bit), min_size=k, max_size=k))
    rac = RACStrategy(k, rac_encoding, tuple(rac_decoding))
    perm = tuple(data.draw(st.permutations(range(k)), label="perm"))
    strat = lift_rac_strategy(rac, fset, perm)
    assert strat.encoding == BooleanFn(fset.n, _lifted_table_by_loop(rac, fset, perm))
    assert strat.decoding == {
        (fset.ints[perm[p]], omega): rac.decoding[p][omega]
        for p in range(k)
        for omega in (0, 1)
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_best_lift_matches_a_scan_of_every_permutation(data):
    fset = _draw_set(data, max_size=5)
    k = len(fset)
    bit = st.integers(0, 1)
    rac_encoding = data.draw(st.integers(0, (1 << (1 << k)) - 1), label="rac encoding")
    rac_decoding = data.draw(st.lists(st.tuples(bit, bit), min_size=k, max_size=k))
    rac = RACStrategy(k, rac_encoding, tuple(rac_decoding))
    best_strat, best_val = None, None
    for perm in permutations(range(k)):  # the first permutation with the most wins
        strat = lift_rac_strategy(rac, fset, perm)
        val = evaluate_classical(strat, fset)
        if best_val is None or val.wins > best_val.wins:
            best_strat, best_val = strat, val
    assert best_lift(rac, fset) == (best_strat, best_val)
    with mock.patch("grac.classical._PERM_CHUNK", 7):  # the scan in several batches
        assert best_lift(rac, fset) == (best_strat, best_val)
