"""Reference-table reproduction: exactness and tolerances per report."""

import pytest

import grac.tables as tables_mod
from grac import TABLE_IDS, InvalidInputError, representative_set, reproduce_tables
from grac.tables import (
    TableReport,
    representative_labels,
    table_four,
    table_q,
    table_three,
    table_two,
)


def test_representative_set_rules():
    assert representative_set(2).ints == (1, 2)
    assert representative_set(7).ints == tuple(range(1, 8))
    assert representative_set(4, "xor-closed").ints == (1, 2, 4, 7)
    assert representative_set(4, "open").ints == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        representative_set(4)  # class required
    with pytest.raises(ValueError):
        representative_set(3, "open")
    with pytest.raises(ValueError):
        representative_set(9)
    for k in (0, -1, 64):  # no width holds 64 nonzero labels
        with pytest.raises(InvalidInputError, match="cardinality must be in 1..63"):
            representative_labels(k)
    assert representative_labels(63) == tuple(range(1, 64))


def test_table_two_exact():
    report = table_two()
    assert report.tolerance == 0.0
    assert report.passed
    assert report.max_delta == 0.0
    assert len(report.rows) == 13  # 6 RAC rows + 7 question-set rows


def test_table_q_within_tolerance():
    report = table_q()
    assert report.tolerance == 1e-5
    assert report.passed, [(r.label, r.delta) for r in report.rows]


def test_table_three_within_tolerance():
    report = table_three()
    assert report.tolerance == 1e-4
    assert report.passed, [(r.label, r.delta) for r in report.rows]


def test_table_four_within_tolerance():
    report = table_four()
    assert report.tolerance == 1e-4
    assert len(report.rows) == 7  # six sets at local dimension 2, the open quadruple at 4
    assert report.passed, [(r.label, r.delta) for r in report.rows]


def test_reproduce_tables_order_and_validation():
    reports = reproduce_tables(("II", "I"))
    assert [r.table_id for r in reports] == ["II", "I"]
    with pytest.raises(ValueError):
        reproduce_tables(("I", "X"))
    with pytest.raises(InvalidInputError, match="no table selected"):
        reproduce_tables(())


def test_a_spec_without_its_prefix_is_refused():
    with pytest.raises(InvalidInputError, match="k=<m>"):
        tables_mod.spec_labels("4:open")


def test_reproduce_tables_reads_a_bare_string_as_one_id(monkeypatch):
    assert [r.table_id for r in reproduce_tables("II")] == ["II"]
    # Table IV's see-saws are slow; only the id lookup is under test here.
    monkeypatch.setattr(tables_mod, "table_four", lambda: TableReport("IV", 1e-4, ()))
    assert [r.table_id for r in reproduce_tables("IV")] == ["IV"]
    with pytest.raises(InvalidInputError, match="unknown table id 'V'"):
        reproduce_tables(("IV", "V"))
    assert TABLE_IDS == ("I", "II", "Q", "III", "IV")
