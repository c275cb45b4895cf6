"""Reference tables recomputed from scratch and compared against pinned values.

Five reports:

    I   three explicit classical strategies on the full 7-question set
        (totals and per-question rows, exact)
    II  classical optima per cardinality plus the plain RAC column (exact)
    Q   one-qubit optima per cardinality vs closed forms (1e-5)
    III critical depolarizing noise per cardinality (1e-4)
    IV  entanglement-assisted values per cardinality (1e-4); the open
        quadruple needs local dimension 4 to reach its 3/4.  Every row is
        `eacc_optimum`'s construction on the proven ceiling, exact to
        rounding: the Jordan-Wigner strategy for k = 2, 3 and the open
        quadruple, the embedded one-qubit optimum for the others.  The
        entanglement-assisted see-saw itself stays covered by the
        acceptance tests and the benchmark.

Representative sets are the lexicographically smallest of each cardinality
(and of each 4-question class); optima are orbit invariants, so any
representative reproduces the table.  Tables Q, III and IV run their
optimizers at the library's default seed 0, so every run gives the same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channels import critical_depolarizing
from .classical import (
    ClassicalStrategy,
    classical_optimum,
    evaluate_classical,
    identity_decoding,
    majority_encoding,
    per_label_wins,
    rac_optimum,
)
from .eacc import eacc_optimum
from .errors import InvalidInputError, check_integer
from .mubs import MAX_WIDTH, BooleanFn, FunctionSet, QuadrupleClass, bitstring, full_mubs
from .protocols import reference_value
from .quantum import pm_upper_bound, seesaw

TABLE_IDS = ("I", "II", "Q", "III", "IV")


def representative_labels(k: int, quad_class: str | None = None) -> tuple[int, ...]:
    """Labels of the lex-smallest set of a cardinality: 1..k, or 1,2,4,7 if xor-closed.

    k runs up to the 2^MAX_WIDTH - 1 labels of the widest input.  The class is
    required at cardinality 4 and refused elsewhere.  The labels are the same
    at every width, so the CLI applies them at --n.
    """
    check_integer("cardinality", k)
    if not 1 <= k < 1 << MAX_WIDTH:
        raise InvalidInputError(f"cardinality must be in 1..{(1 << MAX_WIDTH) - 1}, got {k}")
    names = [c.value for c in QuadrupleClass]
    if k == 4 and quad_class not in names:
        choices = " or ".join(f"k=4:{name}" for name in names)
        raise InvalidInputError(f"cardinality 4 needs a class: {choices}")
    if k != 4 and quad_class is not None:
        raise InvalidInputError("a quadruple class only applies to cardinality 4")
    return (1, 2, 4, 7) if quad_class == QuadrupleClass.XOR_CLOSED else tuple(range(1, k + 1))


def representative_set(k: int, quad_class: str | None = None) -> FunctionSet:
    """Lex-smallest width-3 question set of a given cardinality (and class for k=4)."""
    return FunctionSet.from_ints(3, representative_labels(k, quad_class))


def spec_labels(spec: str) -> tuple[int, ...]:
    """Labels of the representative set named by a spec 'k=<m>[:class]', e.g. 'k=4:open'."""
    if not spec.startswith("k="):
        raise InvalidInputError(f"label spec must read k=<m>[:class], got {spec!r}")
    body, sep, qclass = spec[2:].partition(":")
    try:
        if not (body.isascii() and body.isdigit()):
            raise ValueError(body)
        k = int(body)  # also refuses more digits than int() converts
    except ValueError:
        raise InvalidInputError(f"cardinality in {spec!r} must be a decimal integer") from None
    return representative_labels(k, qclass if sep else None)


def _spec_set(spec: str) -> FunctionSet:
    return FunctionSet.from_ints(3, spec_labels(spec))


def _spec_name(spec: str) -> str:
    """Row-label form of a spec: 'k=4:open' reads 'k=4 (open)'."""
    kname, _, qclass = spec.partition(":")
    return f"{kname} ({qclass})" if qclass else kname


@dataclass(frozen=True)
class TableRow:
    label: str
    computed: float
    reference: float
    delta: float
    detail: str = ""


@dataclass(frozen=True)
class TableReport:
    table_id: str
    tolerance: float
    rows: tuple[TableRow, ...]

    @property
    def max_delta(self) -> float:
        return max((abs(r.delta) for r in self.rows), default=0.0)

    def row_passed(self, row: TableRow) -> bool:
        return abs(row.delta) <= self.tolerance

    @property
    def passed(self) -> bool:
        return all(self.row_passed(r) for r in self.rows)


def _row(label: str, computed: float, reference: float, detail: str = "") -> TableRow:
    return TableRow(label, float(computed), float(reference), float(computed - reference), detail)


# ---------------------------------------------------------------------------
# Table I: explicit strategies on the full set

_TABLE_I_LABEL_ORDER = (4, 2, 1, 6, 5, 3, 7)  # presentation order: x1, x2, x3, ...

_TABLE_I_STRATEGIES = {
    "majority + identity": (232, (), {4: 6, 2: 6, 1: 6, 6: 4, 5: 4, 3: 4, 7: 2}, Fraction(32, 56)),
    "majority + identity, flip on 111": (
        232,
        (7,),
        {4: 6, 2: 6, 1: 6, 6: 4, 5: 4, 3: 4, 7: 6},
        Fraction(36, 56),
    ),
    "x1 and not(x2 and x3), flips on 010,001,111": (
        112,
        (2, 1, 7),
        {4: 7, 2: 5, 1: 5, 6: 5, 5: 5, 3: 5, 7: 5},
        Fraction(37, 56),
    ),
}


def table_one() -> TableReport:
    fset = full_mubs(3)
    rows = []
    for name, (enc_table, flips, label_refs, total_ref) in _TABLE_I_STRATEGIES.items():
        strat = ClassicalStrategy(
            BooleanFn(3, enc_table), identity_decoding(fset, invert=flips)
        )
        total = evaluate_classical(strat, fset)
        rows.append(
            _row(f"{name}: total", total.value, float(total_ref), detail=str(total))
        )
        wins = per_label_wins(strat, fset)
        for r in _TABLE_I_LABEL_ORDER:
            rows.append(
                _row(
                    f"{name}: label {bitstring(r, 3)}",
                    wins[r].value,
                    label_refs[r] / 8.0,
                    detail=str(wins[r]),
                )
            )
    return TableReport("I", 0.0, tuple(rows))


# ---------------------------------------------------------------------------
# Table II: classical optima and the RAC column

_TABLE_II_RAC = {
    2: Fraction(3, 4),
    3: Fraction(3, 4),
    4: Fraction(11, 16),
    5: Fraction(11, 16),
    6: Fraction(21, 32),
    7: Fraction(21, 32),
}

_TABLE_II_GRAC = {
    "k=2": Fraction(3, 4),
    "k=3": Fraction(3, 4),
    "k=4:xor-closed": Fraction(3, 4),
    "k=4:open": Fraction(11, 16),
    "k=5": Fraction(7, 10),
    "k=6": Fraction(2, 3),
    "k=7": Fraction(37, 56),
}


def table_two() -> TableReport:
    rows = []
    for k, ref in _TABLE_II_RAC.items():
        val = rac_optimum(k)
        delta = 0.0 if val.as_fraction() == ref else val.value - float(ref)
        rows.append(TableRow(f"RAC k={k}", val.value, float(ref), delta, str(val)))
    for spec, ref in _TABLE_II_GRAC.items():
        val = classical_optimum(_spec_set(spec), max_strategies=1)[0]
        delta = 0.0 if val.as_fraction() == ref else val.value - float(ref)
        rows.append(TableRow(f"GRAC {_spec_name(spec)}", val.value, float(ref), delta, str(val)))
    return TableReport("II", 0.0, tuple(rows))


# ---------------------------------------------------------------------------
# Table Q: one-qubit optima vs closed forms

_TABLE_Q_GRAC = {
    "k=2": pm_upper_bound(2),
    "k=3": pm_upper_bound(3),
    "k=4:xor-closed": pm_upper_bound(4),
    "k=4:open": reference_value("C"),
    "k=5": pm_upper_bound(5),
    "k=6": pm_upper_bound(6),
    "k=7": pm_upper_bound(7),
}


def table_q() -> TableReport:
    rows = []
    for spec, ref in _TABLE_Q_GRAC.items():
        report = seesaw(_spec_set(spec), restarts=16)
        rows.append(_row(f"GRAC {_spec_name(spec)}", report.value, ref))
    return TableReport("Q", 1e-5, tuple(rows))


# ---------------------------------------------------------------------------
# Table III: critical depolarizing noise

_TABLE_III = {
    "k=2": 0.29289,
    "k=3": 0.13396,
    "k=4:open": 0.22354,
    "k=5": 0.10555,
    "k=6": 0.18349,
    "k=7": 0.14957,
}


def table_three() -> TableReport:
    rows = []
    for spec, ref in _TABLE_III.items():
        lam = critical_depolarizing(_spec_set(spec), restarts=16)
        rows.append(_row(f"lambda_crit {_spec_name(spec)}", lam, ref))
    return TableReport("III", 1e-4, tuple(rows))


# ---------------------------------------------------------------------------
# Table IV: entanglement-assisted values, table Q's at local dimension 2 except
# the open quadruple's, which needs local dimension 4 to reach 3/4


def table_four() -> TableReport:
    rows = []
    for spec, ref in _TABLE_Q_GRAC.items():
        if spec != "k=4:open":
            value = eacc_optimum(_spec_set(spec), local_dim=2, restarts=8).value
            rows.append(_row(f"EACC {_spec_name(spec)}, local dim 2", value, ref))
    value = eacc_optimum(_spec_set("k=4:open"), local_dim=4, restarts=64).value
    rows.append(_row("EACC k=4 (open), local dim 4", value, pm_upper_bound(4)))
    return TableReport("IV", 1e-4, tuple(rows))


def reproduce_tables(which=TABLE_IDS) -> list[TableReport]:
    """Recompute the requested tables; a bare string is one id.  An empty
    selection or an invalid id raises InvalidInputError."""
    if isinstance(which, str):
        which = (which,)
    if not which:
        raise InvalidInputError(f"no table selected; valid ids: {TABLE_IDS}")
    builders = dict(zip(TABLE_IDS, (table_one, table_two, table_q, table_three, table_four)))
    for t in which:
        if t not in builders:
            raise InvalidInputError(f"unknown table id {t!r}; valid ids: {TABLE_IDS}")
    return [builders[t]() for t in which]
