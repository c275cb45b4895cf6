"""Parity labels, truth tables, function sets, the MUBS theorem, quadruple classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grac import (
    BooleanFn,
    FunctionSet,
    ParityLabel,
    QuadrupleClass,
    WidthMismatchError,
    WidthOutOfRangeError,
    WrongCardinalityError,
    classify_quadruple,
    full_mubs,
    sign_matrix,
)


def test_parity_basics():
    """Five parities read as sign-matrix entries g[x, y] = (-1)^{f_r(x)}."""
    g = sign_matrix(FunctionSet.from_ints(3, (0b100, 0b101, 0b111)))
    column = {0b100: 0, 0b101: 1, 0b111: 2}
    for r, x, bit in [
        (0b100, 0b100, 1),
        (0b100, 0b011, 0),
        (0b111, 0b110, 0),
        (0b111, 0b100, 1),
        (0b101, 0b111, 0),
    ]:
        assert g[x, column[r]] == (-1) ** bit


def test_boolean_fn_call_and_bits():
    f = BooleanFn(3, 0b11110000)
    # f(x) = x1 (most significant bit), so inputs 4..7 map to 1
    assert f.bits() == "00001111"
    assert [f(x) for x in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_boolean_fn_roundtrip():
    f = BooleanFn.from_bits("01101001")
    assert f.n == 3
    assert f.bits() == "01101001"
    assert BooleanFn(f.n, f.table) == f


def test_boolean_fn_validation():
    with pytest.raises(ValueError):
        BooleanFn.from_bits("011")  # not a power of two
    with pytest.raises(ValueError):
        BooleanFn.from_bits("01x0")
    with pytest.raises(ValueError):
        BooleanFn(2, 1 << 16)  # table wider than 2^n bits
    with pytest.raises(WidthOutOfRangeError):
        BooleanFn(0, 0)
    with pytest.raises(WidthOutOfRangeError):
        BooleanFn(7, 0)


def test_parity_label_roundtrip_and_validation():
    lab = ParityLabel.from_bitstring("110")
    assert (lab.n, lab.r) == (3, 6)
    assert lab.bitstring() == "110"
    with pytest.raises(ValueError):
        ParityLabel(3, 0)  # zero label names the constant function
    with pytest.raises(ValueError):
        ParityLabel(3, 8)
    with pytest.raises(ValueError):
        ParityLabel.from_bitstring("10a")


def test_function_set_canonical_order_and_serialization():
    fset = FunctionSet.from_ints(3, (6, 1, 4))
    assert fset.ints == (1, 4, 6)
    assert fset.bitstrings() == "001,100,110"
    assert FunctionSet.from_bitstrings("110, 001,100") == fset
    assert len(fset) == 3
    assert [lab.r for lab in fset] == [1, 4, 6]


def test_function_set_validation():
    with pytest.raises(ValueError):
        FunctionSet.from_ints(3, (1, 1))
    with pytest.raises(ValueError):
        FunctionSet.from_ints(3, ())
    with pytest.raises(WidthMismatchError):
        FunctionSet(3, (ParityLabel(2, 1),))
    with pytest.raises(ValueError):
        FunctionSet.from_bitstrings("")


def test_full_mubs_and_is_mubs():
    for n in (1, 2, 3):
        fset = full_mubs(n)
        assert len(fset) == (1 << n) - 1
        g = sign_matrix(fset)
        assert (g.sum(axis=0) == 0).all()
        assert (g.T @ g == (1 << n) * np.eye(len(fset))).all()


def test_classify_quadruple():
    assert classify_quadruple(FunctionSet.from_ints(3, (1, 2, 4, 7))) is QuadrupleClass.XOR_CLOSED
    assert classify_quadruple(FunctionSet.from_ints(3, (1, 2, 3, 4))) is QuadrupleClass.OPEN
    assert classify_quadruple(FunctionSet.from_ints(3, (3, 5, 6, 7))) is QuadrupleClass.OPEN
    assert classify_quadruple(FunctionSet.from_ints(3, (1, 2, 5, 6))) is QuadrupleClass.XOR_CLOSED
    with pytest.raises(WrongCardinalityError):
        classify_quadruple(full_mubs(3))


def test_quadruple_class_counts_at_width_3():
    from itertools import combinations

    counts = {QuadrupleClass.XOR_CLOSED: 0, QuadrupleClass.OPEN: 0}
    for combo in combinations(range(1, 8), 4):
        counts[classify_quadruple(FunctionSet.from_ints(3, combo))] += 1
    # xor-closed quadruples are the zero-avoiding cosets of the seven
    # 2-dimensional subspaces of F_2^3, one coset each
    assert counts[QuadrupleClass.XOR_CLOSED] == 7
    assert counts[QuadrupleClass.OPEN] == 28


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_function_set_is_a_mubs_at_widths_1_to_6(data):
    """The FunctionSet theorem in the form the correlator reductions use:
    each column of the sign matrix sums to 0 and its Gram matrix is 2^n I."""
    n = data.draw(st.integers(1, 6), label="n")
    labels = data.draw(
        st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=(1 << n) - 1),
        label="labels",
    )
    g = sign_matrix(FunctionSet.from_ints(n, labels))
    assert (g.sum(axis=0) == 0).all()
    assert (g.T @ g == (1 << n) * np.eye(len(labels))).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_translating_the_input_flips_each_column_by_a_character(data):
    """g[x ^ a, y] = (-1)^popcount(a & y) g[x, y]: the symmetry that lets the
    exact classical search fix the signs on a basis of the labels."""
    n = data.draw(st.integers(1, 4), label="n")
    m = 1 << n
    labels = data.draw(
        st.sets(st.integers(1, m - 1), min_size=1, max_size=m - 1), label="labels"
    )
    fset = FunctionSet.from_ints(n, labels)
    g = sign_matrix(fset)
    for a in range(m):
        character = np.array([(-1) ** (a & y).bit_count() for y in fset.ints])
        assert (g[np.arange(m) ^ a] == character * g).all()
