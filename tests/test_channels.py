"""Bloch channels, noise thresholds, dephasing sweeps, crossing windows."""

import inspect

import numpy as np
import pytest

from grac import _seesaw, channels, eacc, quantum
from grac import (
    BlochMap,
    FunctionSet,
    InvalidInputError,
    NoCrossingError,
    WidthOutOfRangeError,
    classical_optimum,
    critical_depolarizing,
    crossing_window,
    dephasing_grid,
    dephasing_sweep,
    evaluate_pm,
    pm_upper_bound,
    reference_protocol,
    representative_set,
    seesaw,
)


def test_depolarizing_map():
    ch = BlochMap.depolarizing(0.3)
    assert np.allclose(ch.matrix() @ np.array([1.0, 0.0, 0.0]), (0.7, 0.0, 0.0))
    assert np.allclose(ch.matrix(), 0.7 * np.eye(3))
    assert np.allclose(BlochMap.depolarizing(1.0).matrix() @ np.array([0.2, 0.5, 0.1]), 0.0)


def test_dephasing_map():
    ch = BlochMap.dephasing(0.2, axis=(0.0, 0.0, 1.0))
    # the axis itself is untouched, transverse parts shrink by 1 - 2*lambda
    assert np.allclose(ch.matrix() @ np.array([0.0, 0.0, 1.0]), (0.0, 0.0, 1.0))
    assert np.allclose(ch.matrix() @ np.array([1.0, 0.0, 0.0]), (0.6, 0.0, 0.0))
    full = BlochMap.dephasing(0.5, axis=(1.0, 0.0, 0.0))
    assert np.allclose(full.matrix() @ np.array([0.3, 0.4, 0.5]), (0.3, 0.0, 0.0))


def test_channel_validation():
    with pytest.raises(ValueError):
        BlochMap.depolarizing(-0.1)
    with pytest.raises(ValueError):
        BlochMap.depolarizing(1.1)
    with pytest.raises(ValueError):
        BlochMap.dephasing(0.6)  # dephasing tops out at 1/2
    with pytest.raises(ValueError):
        BlochMap.dephasing(0.2, axis=(0.0, 0.0, 0.0))
    # axis gets normalized
    ch = BlochMap.dephasing(0.1, axis=(0.0, 0.0, 2.0))
    assert np.allclose(ch.axis, (0.0, 0.0, 1.0))


def test_depolarizing_linearity_fixed_strategy():
    fset, strat = reference_protocol("C")
    s0 = evaluate_pm(strat, fset)
    for lam in np.linspace(0.0, 1.0, 11):
        s_lam = evaluate_pm(strat, fset, channel=BlochMap.depolarizing(float(lam)))
        assert s_lam == pytest.approx(0.5 + (1.0 - lam) * (s0 - 0.5), abs=1e-12)


def test_critical_depolarizing_pair():
    fset = representative_set(2)
    lam = critical_depolarizing(fset, restarts=8, seed=0)
    # closed form: 1 - (3/4 - 1/2)/(pm_bound(2) - 1/2) = 1 - 1/sqrt(2)/... computed directly
    s_c = classical_optimum(fset)[0].value
    s_q = pm_upper_bound(2)
    assert lam == pytest.approx(1.0 - (s_c - 0.5) / (s_q - 0.5), abs=1e-8)
    assert lam == pytest.approx(0.29289, abs=1e-4)


def test_critical_depolarizing_no_advantage():
    # a single question is answered perfectly by a classical bit: no threshold
    fset = representative_set(2)
    from grac.mubs import FunctionSet

    single = FunctionSet.from_ints(3, (4,))
    assert critical_depolarizing(single, restarts=4, seed=0) == 0.0
    assert critical_depolarizing(fset, restarts=8, seed=0) > 0.0


def test_dephasing_sweep_bounds_and_floor():
    fset = representative_set(5)
    grid = [0.0, 0.1, 0.25, 0.4, 0.5]
    sweep = dephasing_sweep(fset, axis=(1.0, 0.0, 0.0), grid=grid, restarts=4, seed=0)
    assert sweep.lam == tuple(grid)
    assert len(sweep.values) == len(grid)
    s_c = classical_optimum(fset)[0].value
    assert sweep.classical.value == s_c
    bound = pm_upper_bound(len(fset))
    for val, ratio in zip(sweep.values, sweep.ratio):
        assert s_c - 1e-9 <= val <= bound + 1e-9
        assert ratio == pytest.approx(val / s_c, abs=1e-12)
    # more dephasing never helps
    diffs = np.diff(sweep.values)
    assert (diffs <= 1e-7).all()
    # at full dephasing only the classical value survives
    assert sweep.values[-1] == pytest.approx(s_c, abs=1e-6)
    # 1-lambda bookkeeping
    rows = list(sweep.rows())
    assert [row[1] for row in rows] == [1.0 - l for l in grid]
    assert rows[0][:2] == (0.0, 1.0)
    assert rows[0][3] == s_c


def test_crossing_window_quintuple_vs_open_quadruple():
    quint = representative_set(5)
    quad = representative_set(4, "open")
    low, high = crossing_window(
        quint, quad, axis=(1.0, 0.0, 0.0), grid=np.linspace(0.0, 0.5, 26), restarts=4, seed=0
    )
    assert low == pytest.approx(0.5, abs=0.01)
    assert high == pytest.approx(0.871, abs=0.01)
    assert low < high


def test_a_window_whose_run_of_leads_closes_inside_the_grid():
    """The open quadruple leads the quintuple from lambda = 0 to a crossing
    inside the grid, so its run of leads ends before the grid does."""
    low, high = crossing_window(
        representative_set(4, "open"), representative_set(5), grid=dephasing_grid(11)
    )
    assert low == pytest.approx(0.871, abs=0.01)
    assert high == 1.0


def test_crossing_window_no_crossing():
    fset = representative_set(3)
    with pytest.raises(NoCrossingError):
        crossing_window(
            fset, fset, axis=(1.0, 0.0, 0.0), grid=[0.0, 0.25, 0.5], restarts=2, seed=0
        )


def test_crossing_window_dominating_first_set():
    # a pair beats a sextuple at every noise level: no finite window
    pair = representative_set(2)
    sext = representative_set(6)
    with pytest.raises(NoCrossingError):
        crossing_window(
            pair, sext, axis=(1.0, 0.0, 0.0), grid=[0.0, 0.2, 0.4], restarts=2, seed=0
        )


def test_crossing_window_of_a_tie_up_to_rounding_is_no_crossing():
    """On the oblique axis the xor-closed quadruple and the triple tie from
    lambda = 0.15 on; their sweeps differ there by at most an ulp or so,
    which is no lead, so the triple ties or leads everywhere."""
    with pytest.raises(NoCrossingError, match="dominates \\(or ties\\)"):
        crossing_window(
            representative_set(4, "xor-closed"), representative_set(3), axis=(0.48, -0.6, 0.64)
        )


def _count_solves(monkeypatch) -> list[int]:
    """Record the number of channel matrices of each `_solve_points` call a window makes."""
    sizes = []
    solve = channels._solve_points

    def counting(game, dmats, *args):
        sizes.append(len(dmats))
        return solve(game, dmats, *args)

    monkeypatch.setattr(channels, "_solve_points", counting)
    return sizes


def test_crossing_window_refines_in_batched_rounds(monkeypatch):
    """Two sweeps, then one 7-point solve per set for each round of 8-section search.

    The window's lower end in lambda is interior, and its 0.05 grid cell
    narrows to 1e-4 in 9 halvings: 3 rounds.
    """
    sizes = _count_solves(monkeypatch)
    quint, quad = representative_set(5), representative_set(4, "open")
    low, high = crossing_window(quint, quad, grid=dephasing_grid(11))
    assert sizes == [11, 11] + [7] * 6
    assert low == 0.5
    assert high == pytest.approx(0.871, abs=0.01)


def _synthetic_difference(monkeypatch, set_a, diff) -> list[int]:
    """Make set_a's value diff(lam) and every other set's 0, on the x axis.

    Returns the number of channel matrices of each solve; past 200 solves
    the window fails instead of running on.
    """
    sizes = []

    def synthetic(game, dmats, restarts, seed):
        sizes.append(len(dmats))
        assert len(sizes) <= 200, "the refinement did not end"
        lam = (1.0 - dmats[:, 1, 1]) / 2.0  # the x-axis channel shrinks y by 1 - 2 lam
        n = len(lam)
        values = diff(lam) if game is set_a else np.zeros(n)
        empty = np.zeros((n, 0, 3))  # a window reads only the values
        return _seesaw.Rows(values, np.zeros(n, dtype=np.int64), np.zeros(n), empty, empty,
                            np.ones(n, dtype=bool))

    monkeypatch.setattr(channels, "_game", lambda fset, axis: fset)
    monkeypatch.setattr(channels, "_solve_points", synthetic)
    return sizes


def test_crossing_window_refines_to_the_crossing_nearest_the_window(monkeypatch):
    """Inside one grid cell the difference crosses zero at 0.22 and again at 0.15.

    A synthetic difference lam (lam - 0.15) (lam - 0.22) stands in for the
    two sets' values: positive on the grid points 0.25 and 0.5, zero at 0,
    and negative only on (0.15, 0.22).  The window's end is the crossing at
    0.22, next to the grid point inside it, so it stays one run of positive
    difference, although 0.125, the cell's midpoint, is positive.
    """
    quint, quad = representative_set(5), representative_set(4, "open")
    _synthetic_difference(monkeypatch, quint, lambda lam: lam * (lam - 0.15) * (lam - 0.22))
    low, high = crossing_window(quint, quad, grid=[0.0, 0.25, 0.5])
    assert low == 0.5
    assert high == pytest.approx(1.0 - 0.22, abs=channels.REFINE_TOL)


def test_depolarizing_linearity_of_optimized_value():
    fset = representative_set(3)
    base = seesaw(fset, restarts=8, seed=0).value
    lam = 0.2
    noisy = seesaw(fset, restarts=8, seed=0, channel=BlochMap.depolarizing(lam)).value
    assert noisy == pytest.approx(0.5 + (1 - lam) * (base - 0.5), abs=1e-7)


def test_dephasing_grid():
    assert dephasing_grid(5) == [0.0, 0.125, 0.25, 0.375, 0.5]
    assert dephasing_grid() == [0.5 * i / 100 for i in range(101)]
    for bad in (1, 0, -3, 2.0, True):
        with pytest.raises(InvalidInputError):
            dephasing_grid(bad)
    assert len(dephasing_grid(channels.MAX_GRID_POINTS)) == channels.MAX_GRID_POINTS
    for huge in (channels.MAX_GRID_POINTS + 1, 10**20):
        with pytest.raises(InvalidInputError, match="at most 10001 grid points"):
            dephasing_grid(huge)


def test_a_grids_dephasing_matrices_are_each_points_bloch_map():
    """`channels._dephasing_matrices` builds a grid's matrices as one array
    expression, bit for bit as one `BlochMap` per point does, on the unit
    axes of random axes, unit or not, and grids of 2 to 101 points; it names
    the first bad point."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        axis = tuple(rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4))
        unit = channels._unit_axis(axis)
        for grid in (dephasing_grid(int(rng.integers(2, 102))), list(rng.uniform(0.0, 0.5, 7))):
            want = np.stack([BlochMap.dephasing(lam, axis).matrix() for lam in grid])
            assert np.array_equal(channels._dephasing_matrices(grid, unit), want)
    with pytest.raises(InvalidInputError, match=r"got 0\.7$"):
        channels._dephasing_matrices([0.1, 0.7, -0.2], (1.0, 0.0, 0.0))


def test_a_sweep_normalizes_its_axis_once():
    """A sweep's matrices and its classical start along the axis both use the
    axis `BlochMap` keeps, bit for bit, on random axes: `_unit_axis` is not
    idempotent, so a second normalization would move last bits of about a
    third of them."""
    rng = np.random.default_rng(39)
    fset = representative_set(3)
    grid = dephasing_grid(5)
    for _ in range(200):
        axis = tuple(rng.standard_normal(3))
        maps = [BlochMap.dephasing(lam, axis) for lam in grid]
        unit, _, dmats = channels._sweep_inputs(axis, grid, 8, 0)
        assert unit == maps[0].axis
        assert np.array_equal(dmats, np.stack([ch.matrix() for ch in maps]))
        start = quantum._game(fset, unit).starts[-1]
        assert np.array_equal(np.abs(start), np.abs(np.outer(np.ones(len(fset)), unit)))


def test_bad_axis_and_empty_grid_are_rejected():
    for axis in ((np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (1.0, -np.inf, 0.0), "abc"):
        with pytest.raises(InvalidInputError, match="axis"):
            channels._unit_axis(axis)
    with pytest.raises(InvalidInputError, match="axis"):
        BlochMap.dephasing(0.1, axis=(np.inf, 0.0, 0.0))
    fset = representative_set(3)
    with pytest.raises(InvalidInputError, match="axis"):
        dephasing_sweep(fset, axis="abc")
    with pytest.raises(InvalidInputError, match="grid"):
        dephasing_sweep(fset, grid=[])
    with pytest.raises(InvalidInputError, match="grid"):
        crossing_window(fset, representative_set(2), grid=[])


def test_an_axis_whose_norm_overflows_or_underflows_is_scaled_not_refused():
    diagonal = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    for axis in ((1e308, 1e308, 0.0), (1e-200, 1e-200, 0.0)):
        np.testing.assert_array_max_ulp(np.array(channels._unit_axis(axis)), diagonal, maxulp=1)
    with pytest.raises(InvalidInputError, match="axis must be nonzero"):
        channels._unit_axis((0.0, 0.0, 0.0))
    # an axis the plain norm serves keeps its arithmetic
    arr = np.array([0.48, -0.6, 0.64])
    assert channels._unit_axis(arr) == tuple((arr / float(np.linalg.norm(arr))).tolist())


def _forbid_kernel(monkeypatch, what):
    """Make both see-saw kernels, as the library reaches them, fail the test."""

    def no_kernel(*args, **kwargs):
        raise AssertionError(f"the see-saw kernel ran before {what}")

    monkeypatch.setattr(quantum, "run_seesaw", no_kernel)
    monkeypatch.setattr(eacc, "alternate", no_kernel)


@pytest.mark.parametrize(
    "call",
    [
        lambda pair: seesaw(pair, channel=np.eye(2)),
        lambda pair: dephasing_sweep(pair, axis=(1.0, 0.0)),
        lambda pair: crossing_window(pair, representative_set(3), axis=(1.0, 0.0, 0.0, 0.0)),
        lambda pair: BlochMap(channels.DEPOLARIZING, 0.1, (0.0, 0.0, 1.0)),
        lambda pair: BlochMap("bit flip", 0.1),
        lambda pair: crossing_window(pair, representative_set(3), restarts=2.0),
        lambda pair: crossing_window(pair, representative_set(3), seed="0"),
        lambda pair: critical_depolarizing(pair, restarts=2.0),
        lambda pair: BlochMap.depolarizing(None),
        lambda pair: BlochMap.depolarizing(True),
        lambda pair: BlochMap.dephasing("0.1"),
        lambda pair: BlochMap.dephasing(0.1, axis=None),
    ],
)
def test_malformed_numbers_are_refused_before_any_kernel(monkeypatch, call):
    _forbid_kernel(monkeypatch, "the arguments were checked")
    with pytest.raises(InvalidInputError):
        call(representative_set(2))


def test_dephasing_sweep_checks_grid_range_before_any_seesaw(monkeypatch):
    _forbid_kernel(monkeypatch, "every grid point was checked")
    pair = representative_set(2)
    for grid in ([0.0, 0.1, 0.7], [0.0, 0.25, -0.1]):
        with pytest.raises(InvalidInputError, match="dephasing strength"):
            dephasing_sweep(pair, grid=grid, restarts=1)
        with pytest.raises(InvalidInputError, match="dephasing strength"):
            crossing_window(pair, representative_set(3), grid=grid, restarts=1)


def test_bad_grids_are_rejected_before_any_seesaw(monkeypatch):
    _forbid_kernel(monkeypatch, "the grid was checked")
    pair, triple = representative_set(2), representative_set(3)
    # a bool or a numeric string is not a strength, though float() would read it as one
    for grid in ([[0.0, 0.1]], [[0.0], [0.1]], ["a"], 0.25, [False, 0.25, 0.5], ["0.1", 0.3]):
        with pytest.raises(InvalidInputError, match="grid"):
            dephasing_sweep(pair, grid=grid)
        with pytest.raises(InvalidInputError, match="grid"):
            crossing_window(pair, triple, grid=grid)
    # a window needs its grid in order: unsorted it would report an inverted window
    for grid in ([0.5, 0.0, 0.25, 0.1], [0.0, 0.25, 0.25, 0.5], [0.5, 0.0]):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            crossing_window(pair, triple, grid=grid)


SPECS = (2, 3, (4, "xor-closed"), (4, "open"), 5, 6, 7)


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("axis, seed", [((1.0, 0.0, 0.0), 0), ((0.48, -0.6, 0.64), 11)])
def test_sweep_points_match_or_beat_a_one_point_seesaw(spec, axis, seed):
    """The batched sweep never loses to the point-by-point see-saw on its own starts.

    Point i's first round runs the start set of the one-point solve here:
    cold starts seeded (seed + i, j), 8 at the first point and 1 elsewhere,
    and the classical starts along z and along the unit axis.  Later rounds
    only add rows, so the sweep's value is at least the one-point solve's,
    exactly.
    """
    fset = representative_set(*spec) if isinstance(spec, tuple) else representative_set(spec)
    grid = dephasing_grid(11)
    sweep = dephasing_sweep(fset, axis=axis, grid=grid, seed=seed)
    game = quantum._game(fset, quantum._unit_axis(axis))
    assert len(game.starts) == 2  # the axis start is in every one-point solve
    for i, lam in enumerate(grid):
        dmat = BlochMap.dephasing(lam, axis).matrix()[None]
        solo = quantum._solve_points(game, dmat, 8 if i == 0 else 1, seed + i)[0][0]
        assert sweep.values[i] >= solo, (i, lam)


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.48, -0.6, 0.64)])
def test_a_sweeps_last_point_is_the_classical_optimum(spec, axis):
    """At lambda = 1/2 the channel projects onto the axis, so every Bloch vector
    is +-n times a length at most 1 and the objective, convex in each n.v_y,
    peaks at the classical optimum: an exact oracle for the sweep's last point."""
    fset = representative_set(*spec) if isinstance(spec, tuple) else representative_set(spec)
    sweep = dephasing_sweep(fset, axis=axis, grid=dephasing_grid(11))
    assert sweep.lam[-1] == 0.5
    assert sweep.values[-1] == pytest.approx(classical_optimum(fset)[0].value, abs=1e-12)


@pytest.mark.parametrize("finish", ["on", "off"])
def test_the_hand_off_trip_does_not_move_sweep_values(monkeypatch, finish):
    """Each 11-point sweep of the width-3 representatives on the x, z and an
    oblique axis at seed 0 reads the same values, within 4 ulps, when the
    kernel hands its slow rows on after twice as many trips.

    With the Newton finish off (its cap at tangent dimension 0) every row
    kept at the hand-off resumes its trips, and no point of these sweeps has
    more than _FINISH_ROWS rows, so none stops there.  A hand-off that
    stopped its running rows would leave them at whichever trip it came:
    with the finish on, the polish of each point's best row hides that."""
    if finish == "off":
        monkeypatch.setattr(_seesaw, "_NEWTON_MAX_DIM", 0)
    grid = dephasing_grid(11)
    runs = []
    for after in (_seesaw._NEWTON_AFTER, 2 * _seesaw._NEWTON_AFTER):
        monkeypatch.setattr(_seesaw, "_NEWTON_AFTER", after)
        runs.append([
            dephasing_sweep(fset, axis=axis, grid=grid, seed=0).values
            for axis in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.48, -0.6, 0.64))
            for fset in (representative_set(*s) if isinstance(s, tuple) else representative_set(s)
                         for s in SPECS)
        ])
    here, late = np.array(runs)
    assert np.all(np.abs(here - late) <= 4 * np.spacing(late))


def test_open_quadruple_sweep_makes_few_kernel_calls(monkeypatch):
    """The open quadruple's default-grid sweep settles in a few batched rounds.

    Without the kernel's Newton finish, slow rows left neighbouring points
    trading gains just above the kernel's tolerance, and the sweep made 22
    kernel calls, the last 14 on 2 to 6 rows each.
    """
    rows = []
    kernel = quantum.run_seesaw

    def counting(signs, dmat, v0, max_iters, tol, owner=None):
        rows.append(len(v0))
        return kernel(signs, dmat, v0, max_iters, tol, owner)

    monkeypatch.setattr(quantum, "run_seesaw", counting)
    sweep = dephasing_sweep(representative_set(4, "open"))
    assert len(rows) <= 5, rows
    assert sweep.values[0] == pytest.approx(0.741481456572, abs=1e-11)


WIDTH_4_LABELS = (
    "0001,0010,0100,1000",
    "0011,0101,1001,1110,1111",
    "0010,0101,0110,1000,1010,1110,1111",  # short of 1/2(1+1/sqrt(7))
)


@pytest.mark.parametrize("spec", SPECS + ("one label",) + WIDTH_4_LABELS, ids=str)
@pytest.mark.parametrize("restarts, seed", [(1, 0), (4, 3), (8, 0)])
def test_threshold_reads_off_the_noiseless_seesaw(spec, restarts, seed):
    """The threshold is the closed form at seesaw's value on the same starts, exactly.

    Both are one noiseless `quantum._solve_points` call on `restarts` random
    starts and the classical start along z.
    """
    if spec == "one label":
        fset = FunctionSet.from_ints(2, (1,))  # a classical bit answers it: no advantage
    elif spec in WIDTH_4_LABELS:
        fset = FunctionSet.from_ints(4, tuple(int(b, 2) for b in spec.split(",")))
    elif isinstance(spec, tuple):
        fset = representative_set(*spec)
    else:
        fset = representative_set(spec)
    s_c = classical_optimum(fset)[0].value
    report = seesaw(fset, restarts=restarts, seed=seed)
    assert report.restarts_used == restarts + 1
    s_q = report.value
    expected = 1.0 - (s_c - 0.5) / (s_q - 0.5) if s_q > s_c else 0.0
    assert critical_depolarizing(fset, restarts=restarts, seed=seed) == expected


@pytest.mark.parametrize("points", [2, 11, 101])
def test_dephasing_sweep_runs_one_classical_search(monkeypatch, points):
    """One exact search per set: per sweep, per threshold, and per set of a window."""
    calls = []
    search = quantum.classical_optimum

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(quantum, "classical_optimum", counting)
    quint, quad = representative_set(5), representative_set(4, "open")
    dephasing_sweep(quint, grid=dephasing_grid(points), restarts=2)
    assert len(calls) == 1
    calls.clear()
    critical_depolarizing(quint, restarts=2)
    assert len(calls) == 1
    calls.clear()
    try:
        crossing_window(quint, quad, grid=dephasing_grid(points), restarts=2)
    except NoCrossingError:
        pass
    assert [args[0] for args in calls] == [quint, quad]


WIDE = FunctionSet.from_ints(5, (1, 2, 4))  # above the exact search's width


def test_a_wide_seesaw_runs_without_a_classical_start():
    report = seesaw(WIDE, restarts=3, seed=0)
    assert report.restarts_used == 3
    assert 0.5 < report.value <= pm_upper_bound(3) + 1e-9


def test_noise_functions_refuse_a_wide_set_before_any_kernel(monkeypatch):
    _forbid_kernel(monkeypatch, "the width was checked")
    with pytest.raises(WidthOutOfRangeError):
        critical_depolarizing(WIDE)
    with pytest.raises(WidthOutOfRangeError):
        dephasing_sweep(WIDE, grid=[0.0, 0.5])
    for pair in ((WIDE, representative_set(3)), (representative_set(3), WIDE)):
        with pytest.raises(WidthOutOfRangeError):
            crossing_window(*pair, grid=[0.0, 0.5])


def test_noise_functions_share_one_restarts_default():
    defaults = {
        fn.__name__: inspect.signature(fn).parameters["restarts"].default
        for fn in (critical_depolarizing, dephasing_sweep, crossing_window)
    }
    assert set(defaults.values()) == {8}, defaults
