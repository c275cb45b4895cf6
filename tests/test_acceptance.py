"""Acceptance gate: every headline result, one test per criterion.

Each test pins the tolerance it must meet and, where the contract includes a
runtime budget, measures it.  Criterion 7 is split: 7a and 7c pass; 7b states
a bound that the see-saw does not reach at local dimension 2 (every 2x2
restart ends at the one-qubit optimum for the open quadruple), so it fails
honestly rather than being weakened.  The measurements behind this, and the
note that no proof is given, are in docs/criterion-7b.md.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from grac import (
    FunctionSet,
    QuadrupleClass,
    best_lift,
    classical_optimum,
    classify_quadruple,
    crossing_window,
    critical_depolarizing,
    eacc_seesaw,
    eacc_to_bell,
    evaluate_pm,
    full_mubs,
    norm_cancellation_check,
    optimal_rac_strategy,
    random_strategy,
    reference_protocol,
    reference_value,
    representative_set,
    seesaw,
)
from grac.quantum import run_seesaw
from grac.channels import BlochMap
from grac.quantum import sign_matrix
from grac.tables import table_one


def test_criterion_1_classical_optima_all_subsets():
    """Exact classical optima for every width-3 subset, all 120 in under 10 s."""
    expected = {
        2: Fraction(3, 4),
        3: Fraction(3, 4),
        5: Fraction(7, 10),
        6: Fraction(2, 3),
        7: Fraction(37, 56),
    }
    t0 = time.perf_counter()
    checked = 0
    for k in range(2, 8):
        for combo in combinations(range(1, 8), k):
            fset = FunctionSet.from_ints(3, combo)
            if k == 4:
                ref = (
                    Fraction(3, 4)
                    if classify_quadruple(fset) is QuadrupleClass.XOR_CLOSED
                    else Fraction(11, 16)
                )
            else:
                ref = expected[k]
            value, _ = classical_optimum(fset, max_strategies=1)
            assert value.as_fraction() == ref, f"subset {combo}: {value} != {ref}"
            assert value.total == 8 * k
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 120
    assert elapsed < 10.0, f"exhaustive pass took {elapsed:.2f} s"


def test_criterion_2_explicit_strategy_table():
    """The three hand-written strategies score 32/56, 36/56, 37/56 with exact per-question rows."""
    report = table_one()
    assert report.tolerance == 0.0
    assert report.passed, [
        (r.label, r.computed, r.reference) for r in report.rows if not report.row_passed(r)
    ]
    totals = {r.label: r.detail for r in report.rows if r.label.endswith("total")}
    assert sorted(totals.values()) == ["32/56", "36/56", "37/56"]


def test_criterion_3_seesaw_closed_forms():
    """64-restart see-saw reaches every known one-qubit optimum within 1e-6, each run < 1 s."""
    cases = [
        (representative_set(2), 0.5 * (1 + 1 / math.sqrt(2))),
        (representative_set(3), 0.5 * (1 + 1 / math.sqrt(3))),
        (representative_set(4, "xor-closed"), 0.75),
        (representative_set(4, "open"), 0.5 * (1 + (math.sqrt(2) + math.sqrt(6)) / 8)),
        (representative_set(5), 0.5 * (1 + 1 / math.sqrt(5))),
        (representative_set(6), 0.5 * (1 + 1 / math.sqrt(6))),
        (representative_set(7), 0.5 * (1 + 1 / math.sqrt(7))),
    ]
    for fset, ref in cases:
        t0 = time.perf_counter()
        report = seesaw(fset, restarts=64, seed=0)
        elapsed = time.perf_counter() - t0
        assert report.value == pytest.approx(ref, abs=1e-6), fset.bitstrings()
        assert elapsed < 1.0, f"{fset.bitstrings()}: run took {elapsed:.2f} s"


def test_criterion_4_reference_protocols():
    """Hand-constructed protocols hit their values within 1e-12 and are see-saw fixed points within 1e-9."""
    for case in ("A", "B1", "B2", "C", "D_box", "D_planar", "E"):
        fset, strat = reference_protocol(case)
        ref = reference_value(case)
        assert evaluate_pm(strat, fset) == pytest.approx(ref, abs=1e-12), case
        v0 = strat.meas_array(fset)[None, :, :]
        values, _, _, _, _, _ = run_seesaw(sign_matrix(fset), np.eye(3), v0, 1, 1e-15)
        assert float(values[0]) == pytest.approx(ref, abs=1e-9), case


def test_criterion_5_depolarizing_thresholds():
    """Critical depolarizing noise matches the reference thresholds within 1e-4."""
    refs = {
        (2, None): 0.29289,
        (3, None): 0.13396,
        (4, "open"): 0.22354,
        (5, None): 0.10555,
        (6, None): 0.18349,
        (7, None): 0.14957,
    }
    for (k, qclass), ref in refs.items():
        fset = representative_set(k, qclass)
        lam = critical_depolarizing(fset, restarts=32, seed=0)
        assert lam == pytest.approx(ref, abs=1e-4), f"k={k}"


def test_criterion_6_dephasing_crossing_window():
    """Quintuple beats the open quadruple exactly on 1-lambda in (0.5, 0.871), found in < 60 s."""
    quint = representative_set(5)
    quad = representative_set(4, "open")
    t0 = time.perf_counter()
    low, high = crossing_window(quint, quad, axis=(1.0, 0.0, 0.0), seed=0)
    elapsed = time.perf_counter() - t0
    assert low == pytest.approx(0.5, abs=0.01)
    assert high == pytest.approx(0.871, abs=0.01)
    assert elapsed < 60.0, f"sweep + bisection took {elapsed:.1f} s"


def test_criterion_7a_eacc_2x2_closed_forms():
    """2x2 entanglement-assisted see-saw reaches 1/2(1+1/sqrt(k)) within 1e-4 (k=4: xor-closed)."""
    cases = [
        (representative_set(2), 0.5 * (1 + 1 / math.sqrt(2))),
        (representative_set(3), 0.5 * (1 + 1 / math.sqrt(3))),
        (representative_set(4, "xor-closed"), 0.75),
        (representative_set(5), 0.5 * (1 + 1 / math.sqrt(5))),
        (representative_set(6), 0.5 * (1 + 1 / math.sqrt(6))),
        (representative_set(7), 0.5 * (1 + 1 / math.sqrt(7))),
    ]
    for fset, ref in cases:
        value = eacc_seesaw(fset, local_dim=2, restarts=8, seed=0).value
        assert value == pytest.approx(ref, abs=1e-4), fset.bitstrings()


def test_criterion_7b_eacc_2x2_open_quadruple_gap():
    """Literal clause: the open quadruple at 2x2 must beat 0.741481 by >= 0.008.

    This fails and is left red: every 2x2 (and 3x3) restart measured converges
    to the one-qubit optimum 0.741481456.  That is evidence, not a proof, that
    local dimension 2 cannot reach the bound; the measurements are recorded in
    docs/criterion-7b.md.  The bound itself is met at local dimension 4, see
    test_criterion_7c.
    """
    quad = representative_set(4, "open")
    value = eacc_seesaw(quad, local_dim=2, restarts=48, seed=0).value
    gap = value - 0.741481
    assert gap >= 0.008, (
        f"2x2 value {value:.9f} exceeds the one-qubit optimum by only {gap:.2e}; "
        "local dimension 2 caps at the prepare-and-measure value for this set "
        "(measurements: docs/criterion-7b.md; the gap is realized "
        "at local dimension 4 in test_criterion_7c)"
    )


def test_criterion_7c_eacc_4x4_open_quadruple_gap():
    """At local dimension 4 the open quadruple reaches 3/4, clearing 0.741481 by >= 0.008."""
    quad = representative_set(4, "open")
    report = eacc_seesaw(quad, local_dim=4, restarts=64, seed=0)
    value, strat = report.value, report.best_strategy
    assert value - 0.741481 >= 0.008
    assert value == pytest.approx(0.75, abs=1e-6)
    rep = eacc_to_bell(strat, quad)
    assert rep.bell_value == pytest.approx(rep.eacc_value, abs=1e-10)


def test_criterion_8a_norm_cancellation():
    """sum_x ||sum_y g_y(x) v_y||^2 = 2^n * k for unit vectors: 100 draws per set, 1e-9."""
    rng = np.random.default_rng(2024)
    sets = [representative_set(k) for k in (2, 3, 5, 6, 7)]
    sets += [representative_set(4, "xor-closed"), representative_set(4, "open")]
    for fset in sets:
        k = len(fset)
        for _ in range(100):
            v = rng.standard_normal((k, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            assert norm_cancellation_check(fset, v) == pytest.approx(8 * k, abs=1e-9)


def test_criterion_8b_seesaw_monotonicity():
    """No recorded see-saw run ever takes a downhill step."""
    for k, qclass in [(2, None), (3, None), (4, "xor-closed"), (4, "open"), (5, None), (6, None), (7, None)]:
        fset = representative_set(k, qclass)
        for seed in (0, 1, 2):
            report = seesaw(fset, restarts=8, seed=seed)
            assert report.min_step_delta > -1e-9, (k, qclass, seed)
    for local_dim in (2, 3):
        fset = representative_set(3)
        report = eacc_seesaw(fset, local_dim=local_dim, restarts=4, seed=0)
        assert report.min_step_delta > -1e-8, local_dim


def test_criterion_8c_optimum_dominates_lifted_rac():
    """The question-set optimum is at least the best lifted standard RAC value."""
    for k, qclass in [(2, None), (3, None), (4, "xor-closed"), (4, "open"), (5, None), (6, None), (7, None)]:
        fset = representative_set(k, qclass)
        _, lifted = best_lift(optimal_rac_strategy(k), fset)
        optimum, _ = classical_optimum(fset, max_strategies=1)
        assert optimum.wins >= lifted.wins, (k, qclass)


def test_criterion_8d_bell_reading_equality():
    """Bell-experiment scoring agrees with direct evaluation on 100 random strategies, 1e-10."""
    rng = np.random.default_rng(77)
    sets = [
        representative_set(2),
        representative_set(3),
        representative_set(4, "open"),
        representative_set(5),
    ]
    for i in range(100):
        fset = sets[i % len(sets)]
        d = (2, 3)[i % 2]
        strat = random_strategy(fset, local_dim=d, rng=rng)
        rep = eacc_to_bell(strat, fset)
        assert rep.bell_value == pytest.approx(rep.eacc_value, abs=1e-10), i


def test_criterion_8e_depolarizing_linearity():
    """For a fixed strategy, s(lambda) = 1/2 + (1-lambda)(s(0) - 1/2) to 1e-12."""
    for case in ("A", "C", "E"):
        fset, strat = reference_protocol(case)
        s0 = evaluate_pm(strat, fset)
        for lam in np.linspace(0.0, 1.0, 21):
            expected = 0.5 + (1.0 - float(lam)) * (s0 - 0.5)
            got = evaluate_pm(strat, fset, channel=BlochMap.depolarizing(float(lam)))
            assert got == pytest.approx(expected, abs=1e-12), (case, lam)
