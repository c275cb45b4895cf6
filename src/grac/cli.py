"""Command-line front end: synthesis, certification, and table reproduction.

Subcommands: mubs, classical, quantum, noise, eacc, tables, each defined
once in `_COMMANDS`.  A call whose argv starts with a command name builds
only that command's parser.  An optimizer option left out keeps the
library's default (seed 0 keeps runs byte-reproducible).  Artifacts are
written atomically, before the result is printed.  Exit codes: 0 on
success, 1 on a module error (error JSON on stderr), 2 on a usage error or
when a tables run exceeds its tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

from . import tables as tables_mod
from .channels import (
    DEFAULT_AXIS,
    DEPHASING,
    DEPOLARIZING,
    REFINE_TOL,
    SweepResult,
    critical_depolarizing,
    crossing_window,
    dephasing_grid,
    dephasing_sweep,
)
from .classical import classical_optimum
from .eacc import LOCAL_DIMS, eacc_optimum
from .errors import GracError, InvalidInputError
from .mubs import FunctionSet, classify_quadruple, full_mubs
from .quantum import pm_upper_bound, seesaw


_DEFAULT_AXIS_TEXT = ",".join(f"{c:g}" for c in DEFAULT_AXIS)  # "1,0,0"


def parse_label_spec(n: int, spec: str) -> FunctionSet:
    """Parse --labels: 'all', 'k=<m>[:class]', or comma-separated bitstrings."""
    spec = spec.strip()
    if spec == "all":
        return full_mubs(n)
    if spec.startswith("k="):
        labels = tables_mod.spec_labels(spec)
        k = len(labels)
        if 1 <= n < k.bit_length():  # other widths fail FunctionSet's width check
            raise InvalidInputError(f"k={k} exceeds the {(1 << n) - 1} nonzero labels of width {n}")
        return FunctionSet.from_ints(n, labels)
    fset = FunctionSet.from_bitstrings(spec)
    if fset.n != n:
        raise InvalidInputError(
            f"label width {fset.n} disagrees with --n {n}; drop --n or fix the labels"
        )
    return fset


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".grac-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _given(args, *names) -> dict:
    """The named options the user set; the library defaults the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _set_fields(fset: FunctionSet) -> dict:
    """The "n" and "labels" fields of every artifact about one question set."""
    return {"n": fset.n, "labels": [lab.bitstring() for lab in fset]}


def _report_fields(fset: FunctionSet, report) -> dict:
    """The set's fields and every `SeesawReport` field, the best strategy as a dict
    under "strategy": one layout for the quantum and eacc artifacts."""
    fields = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name != "best_strategy"
    }
    return {**_set_fields(fset), **fields, "strategy": report.best_strategy.to_dict()}


def _csv_available(args) -> bool:
    """Only tables and the dephasing sweep have a CSV artifact."""
    if args.command == "noise":
        return not args.window and args.channel == DEPHASING
    return args.command == "tables"


def _emit(args, payload: dict, summary: str, text: str | None = None, csv: str | None = None):
    """Write the artifact in the requested format if asked, then print the summary."""
    if args.out:
        if args.fmt == "json":
            data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif args.fmt == "text":
            data = (summary if text is None else text) + "\n"
        else:
            data = csv
        _atomic_write(args.out, data)
    print(summary)


def _sweep_csv(sweep: SweepResult) -> str:
    lines = ["lambda,one_minus_lambda,quantum_value,classical_value,ratio"]
    for lam, oml, qv, cv, ratio in sweep.rows():
        lines.append(f"{lam!r},{oml!r},{qv!r},{cv!r},{ratio!r}")
    return "\n".join(lines) + "\n"


def _cmd_mubs(args) -> int:
    """Validate and classify a set; every valid set is a MUBS (see FunctionSet)."""
    fset = parse_label_spec(args.n, args.labels)
    qclass = classify_quadruple(fset).value if len(fset) == 4 else None
    payload = {
        **_set_fields(fset),
        "is_mubs": True,
        "quadruple_class": qclass,
    }
    summary = "MUBS: true"
    if qclass:
        summary += f"; quadruple class: {qclass}"
    _emit(args, payload, summary)
    return 0


def _cmd_classical(args) -> int:
    fset = parse_label_spec(args.n, args.labels)
    value, strategies = classical_optimum(fset, **_given(args, "max_strategies"))
    payload = {
        **_set_fields(fset),
        "value": {"wins": value.wins, "total": value.total, "float": value.value},
        "strategies": [s.to_dict() for s in strategies],
    }
    summary = (
        f"classical optimum {value} = {value.value:.6f} for {len(fset)} questions "
        f"(n={fset.n}); kept {len(strategies)} optimal encodings"
    )
    text = summary + "\n" + "\n".join(s.encoding.bits() for s in strategies)
    _emit(args, payload, summary, text)
    return 0


def _cmd_quantum(args) -> int:
    fset = parse_label_spec(args.n, args.labels)
    report = seesaw(fset, **_given(args, "restarts", "max_iters", "seed"))
    bound = pm_upper_bound(len(fset))
    payload = {**_report_fields(fset, report), "upper_bound": bound}
    summary = (
        f"quantum value {report.value:.9f} (bound {bound:.9f}; "
        f"{report.iterations} iterations, converged={report.converged})"
    )
    _emit(args, payload, summary)
    return 0


def _refuse(args, mode: str, *names) -> None:
    """Raise when the user set an option that `mode` does not read."""
    given = _given(args, *names)
    if given:
        flags = ", ".join(f"--{name.replace('_', '-')} {value!r}" for name, value in given.items())
        raise InvalidInputError(f"{mode} does not use {flags}")


def _cmd_noise(args) -> int:
    fset = parse_label_spec(args.n, args.labels)
    opts = _given(args, "restarts", "seed")
    if args.window:
        if args.channel == DEPOLARIZING:
            raise InvalidInputError("a crossing window is always dephasing; drop --channel depolarizing")
    elif args.channel != DEPHASING:
        _refuse(args, "a depolarizing threshold", "axis", "grid_points")
        lam = critical_depolarizing(fset, **opts)
        payload = {**_set_fields(fset), "channel": DEPOLARIZING, "lambda_crit": lam}
        _emit(args, payload, f"critical depolarizing noise: lambda = {lam:.5f}")
        return 0
    # The sweep's result line echoes the axis as typed, so its default is read here.
    axis_text = _DEFAULT_AXIS_TEXT if args.axis is None else args.axis
    try:
        axis = tuple(float(c) for c in axis_text.split(","))
    except ValueError:
        raise InvalidInputError(f"--axis must be comma-separated numbers, got {axis_text!r}") from None
    if args.grid_points is not None:
        opts["grid"] = dephasing_grid(args.grid_points)
    if args.window:
        other = parse_label_spec(args.n, args.window)
        low, high = crossing_window(fset, other, axis=axis, **opts)
        payload = {"low": low, "high": high, "tol": REFINE_TOL}
        _emit(args, payload, f"crossing window in 1-lambda: ({low:.4f}, {high:.4f})")
        return 0
    sweep = dephasing_sweep(fset, axis=axis, **opts)
    payload = {
        **_set_fields(fset),
        "channel": DEPHASING,
        "axis": list(axis),
        "lambda": list(sweep.lam),
        "values": list(sweep.values),
        "classical": {"wins": sweep.classical.wins, "total": sweep.classical.total},
        "ratio": list(sweep.ratio),
    }
    summary = (
        f"dephasing sweep along ({axis_text}): {sweep.values[0]:.6f} at lambda=0 "
        f"to {sweep.values[-1]:.6f} at lambda={sweep.lam[-1]:g}"
    )
    _emit(args, payload, summary, csv=_sweep_csv(sweep))
    return 0


def _cmd_eacc(args) -> int:
    fset = parse_label_spec(args.n, args.labels)
    report = eacc_optimum(fset, **_given(args, "local_dim", "restarts", "max_iters", "seed"))
    local_dim = report.best_strategy.dims[0]
    payload = {**_report_fields(fset, report), "local_dim": local_dim}
    summary = (
        f"eacc value {report.value:.9f} at local dimension {local_dim} "
        f"({report.iterations} iterations, converged={report.converged})"
    )
    _emit(args, payload, summary)
    return 0


def _cmd_tables(args) -> int:
    which = tuple(t.strip() for t in args.which.split(",") if t.strip())
    reports = tables_mod.reproduce_tables(which)
    payload = []
    status_lines = []
    text_lines = []
    csv_lines = ["table,row,computed,reference,delta,passed"]
    all_passed = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        all_passed &= rep.passed
        line = f"table {rep.table_id}: {status} (max |delta| {rep.max_delta:.3e}, tolerance {rep.tolerance:g})"
        status_lines.append(line)
        text_lines.append(line)
        rows = []
        for row in rep.rows:
            ok = rep.row_passed(row)
            rows.append({**dataclasses.asdict(row), "passed": ok})
            text_lines.append(
                f"  {row.label}: computed {row.computed!r} vs {row.reference!r} "
                f"(delta {row.delta:.3e}) {'ok' if ok else 'EXCEEDS TOLERANCE'}"
            )
            csv_lines.append(
                f"{rep.table_id},{row.label!r},{row.computed!r},{row.reference!r},"
                f"{row.delta!r},{ok}"
            )
        table = {**dataclasses.asdict(rep), "passed": rep.passed, "max_delta": rep.max_delta}
        payload.append({**table, "rows": rows})
    text, csv = "\n".join(text_lines), "\n".join(csv_lines) + "\n"
    _emit(args, {"tables": payload}, "\n".join(status_lines), text, csv)
    return 0 if all_passed else 2


def _add_common(parser: argparse.ArgumentParser, labels=("--labels",), seed=True) -> None:
    """The question set (spelled as `labels` lists), --seed and the artifact options."""
    if labels:
        parser.add_argument("--n", type=int, default=3, help="input width (default 3)")
        parser.add_argument(
            *labels,
            dest="labels",
            default="all",
            help="question set: comma-separated bitstrings, 'all', or k=<m>[:class]",
        )
    if seed:
        parser.add_argument("--seed", type=int, help="random seed (default: the library's)")
    parser.add_argument("--out", help="write the artifact to this path (atomic)")
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv", "text"),
        default="json",
        help="artifact format (default json)",
    )


def _mubs_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, labels=("--labels", "--check"), seed=False)


def _classical_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, seed=False)
    p.add_argument("--max-strategies", type=int)


def _quantum_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", type=int)


def _noise_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument(
        "--channel",
        choices=(DEPOLARIZING, DEPHASING),
        help="depolarizing threshold or dephasing sweep (default depolarizing)",
    )
    p.add_argument("--axis", help=f"dephasing axis (default {_DEFAULT_AXIS_TEXT})")
    p.add_argument("--grid-points", type=int)
    p.add_argument("--window", metavar="LABELS", help="second set: report where --labels beats it")
    p.add_argument("--restarts", type=int)


def _eacc_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--local-dim", type=int, choices=LOCAL_DIMS)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", type=int)


def _tables_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, labels=(), seed=False)
    p.add_argument("--which", default=",".join(tables_mod.TABLE_IDS))


# Every subcommand: name -> (help line in `grac -h`, its arguments, its handler).
_COMMANDS = {
    "mubs": ("validate and classify a question set (always a MUBS)", _mubs_args, _cmd_mubs),
    "classical": ("exact classical optimum and strategies", _classical_args, _cmd_classical),
    "quantum": ("one-qubit see-saw optimization", _quantum_args, _cmd_quantum),
    "noise": ("noise thresholds, dephasing sweeps, crossing windows", _noise_args, _cmd_noise),
    "eacc": (
        "entanglement-assisted optimum: a construction on the bound, else a see-saw",
        _eacc_args,
        _cmd_eacc,
    ),
    "tables": ("recompute reference tables and report deltas", _tables_args, _cmd_tables),
}


def _fill(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Give `parser` the arguments of `command` and the defaults `command` and `func`."""
    _, add_arguments, func = _COMMANDS[command]
    add_arguments(parser)
    parser.set_defaults(command=command, func=func)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand, `grac <command>`, or with no command the
    full `grac` parser, whose subparsers are the same ones.

    Both parse a command's arguments to the same namespace; `main` builds the
    full parser only when its argv does not start with a command name.
    """
    if command is not None:
        return _fill(argparse.ArgumentParser(prog=f"grac {command}"), command)
    parser = argparse.ArgumentParser(
        prog="grac",
        description="Optimal strategies for parity-guessing one-bit communication games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        if args.fmt == "csv" and not _csv_available(args):
            raise InvalidInputError(f"format csv is not available for {args.command}")
        return args.func(args)
    except (GracError, ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
