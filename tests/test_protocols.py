"""Hand-constructed optimal protocols: exact values and see-saw fixed points."""

import numpy as np
import pytest

from grac import (
    REFERENCE_CASES,
    UnknownCaseError,
    evaluate_pm,
    reference_protocol,
    reference_value,
)
from grac.quantum import run_seesaw
from grac.quantum import sign_matrix


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_value_attained(case):
    fset, strat = reference_protocol(case)
    assert evaluate_pm(strat, fset) == pytest.approx(reference_value(case), abs=1e-12)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_sets_are_mubs(case):
    fset, strat = reference_protocol(case)
    g = sign_matrix(fset)
    assert (g.sum(axis=0) == 0).all()
    assert (g.T @ g == (1 << fset.n) * np.eye(len(fset))).all()
    assert strat.n == fset.n
    assert set(strat.measurements) == set(fset.ints)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_protocol_is_seesaw_fixed_point(case):
    """One full see-saw sweep from the protocol's measurements does not move the value."""
    fset, strat = reference_protocol(case)
    signs = sign_matrix(fset)
    v0 = strat.meas_array(fset)[None, :, :]
    values, _, _, _, _, _ = run_seesaw(signs, np.eye(3), v0, 1, 1e-15)
    assert float(values[0]) == pytest.approx(reference_value(case), abs=1e-9)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_measurements_do_not_move(case):
    """At a fixed point the extrapolated candidate is the plain point, so v stays put."""
    fset, strat = reference_protocol(case)
    v0 = strat.meas_array(fset)[None, :, :]
    _, _, _, _, vvecs, _ = run_seesaw(sign_matrix(fset), np.eye(3), v0, 5, 1e-15)
    assert np.abs(vvecs - v0).max() <= 1e-12


def test_case_set_cardinalities():
    sizes = {case: len(reference_protocol(case)[0]) for case in REFERENCE_CASES}
    assert sizes == {"A": 2, "B1": 3, "B2": 3, "C": 4, "D_box": 5, "D_planar": 5, "E": 6}


def test_unknown_case():
    with pytest.raises(UnknownCaseError):
        reference_value("F")
    with pytest.raises(UnknownCaseError):
        reference_protocol("box")
