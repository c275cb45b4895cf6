"""Exact classical optima, explicit strategies, and RAC lifts."""

import random
from fractions import Fraction
from itertools import combinations

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
