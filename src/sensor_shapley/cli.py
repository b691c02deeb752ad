"""Command-line interface.

Subcommands:

* ``analyze``: per-sensor Shapley attribution of the observability degree,
  as a table or JSON report.
* ``check``: observability verdicts (yes/no, min eigenvalue, trace) for the
  full sensor set and each sensor alone.
* ``emit-scenarios``: write the bundled example model files.

Exit codes: 0 success; 1 ``check`` found the full sensor set unobservable;
2 input error (bad flags, unreadable or invalid model file, or a request too
large to allocate, such as an enormous ``--sample``); 3 exact
enumeration refused because the sensor count exceeds the cap (rerun with
``--sample``); 4 the exact Shapley values failed the efficiency check (they do
not sum to the grand value). All error text goes to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .gramian import (
    _eigenvalues,
    _observable,
    is_observable,
    per_sensor_gramians,
)
from .metrics import ValueFunctionKind, evaluate, full_gramian
from .model import EnumerationCapExceeded
from .report import (
    ModelDocument,
    parse_model_document,
    render_json,
    render_table,
)
from .scenarios import SCENARIO_IDS, emit_scenarios, scenario_document
from .shapley import EfficiencyViolation, shapley_exact, shapley_sampled, verify_axioms

__all__ = ["main"]


def _number(text: str, convert, accept, wording: str):
    # A ValueError from a type= callable makes argparse print the callable's
    # name, so text that does not convert gets the out-of-range wording too.
    error = argparse.ArgumentTypeError(f"must be {wording}, got {text}")
    try:
        value = convert(text)
    except ValueError:
        raise error from None
    if not accept(value):
        raise error
    return value


def _positive_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 1, "a positive integer")


def _non_negative_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 0, "a non-negative integer")


def _positive_float(text: str) -> float:
    return _number(text, float, lambda v: 0 < v < math.inf, "a positive number")


def _add_model_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="PATH", help="model document to analyze")
    source.add_argument(
        "--scenario",
        type=int,
        choices=SCENARIO_IDS,
        help="use a bundled example model instead of a file",
    )
    parser.add_argument(
        "--horizon",
        type=_positive_int,
        metavar="SAMPLES",
        help="override the model's sample count",
    )
    parser.add_argument(
        "--tolerance",
        type=_positive_float,
        metavar="TOL",
        help="observability threshold on the minimum eigenvalue "
        "(default: 1e-9 * max(1, largest eigenvalue))",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensor-shapley",
        description="Fair per-sensor attribution of LTI observability degree "
        "via Shapley values over sensor coalitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="compute per-sensor standalone and Shapley values"
    )
    _add_model_source(analyze)
    analyze.add_argument(
        "--metric",
        choices=[k.value for k in ValueFunctionKind],
        default=ValueFunctionKind.MIN_EIGENVALUE.value,
        help="observability degree metric (default: min-eig)",
    )
    analyze.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output rendering (default: table)",
    )
    analyze.add_argument(
        "--sample",
        type=_positive_int,
        metavar="PERMUTATIONS",
        help="estimate by permutation sampling instead of exact enumeration",
    )
    analyze.add_argument(
        "--seed",
        type=_non_negative_int,
        default=0,
        help="random seed for --sample (default: 0)",
    )

    check = sub.add_parser(
        "check", help="observability verdicts for the full set and each sensor"
    )
    _add_model_source(check)

    emit = sub.add_parser(
        "emit-scenarios", help="write the bundled scenario model files"
    )
    emit.add_argument(
        "--dir",
        default=".",
        metavar="PATH",
        help="directory to write into (default: current directory)",
    )
    return parser


def _load_document(args: argparse.Namespace) -> ModelDocument:
    if args.scenario is not None:
        doc = scenario_document(args.scenario)
    else:
        text = Path(args.model).read_text(encoding="utf-8")
        doc = parse_model_document(text)
    if args.horizon is not None:
        model = dataclasses.replace(doc.model, horizon_samples=args.horizon)
        doc = ModelDocument(doc.name, model)
    return doc


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    model = doc.model
    kind = ValueFunctionKind(args.metric)
    if args.sample is not None:
        result = shapley_sampled(model, kind, args.sample, args.seed)
        axioms = None
    else:
        result = shapley_exact(model, kind)
        axioms = verify_axioms(result)
    observable = is_observable(result.grand_gramian, args.tolerance)
    render = render_json if args.format == "json" else render_table
    sys.stdout.write(render(doc.name or "model", result, observable, axioms))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    model = doc.model
    labels = ["full coalition"] + [f"sensor {s.name}" for s in model.sensors]
    bank = per_sensor_gramians(model)
    stack = np.concatenate([full_gramian(bank)[None], bank])
    # one eigen-solve gives the verdicts and the min-eig metric's values
    eigs = _eigenvalues(stack)
    verdicts = _observable(eigs, args.tolerance)
    traces = evaluate(ValueFunctionKind.TRACE, stack)
    for label, ok, min_eig, trace in zip(labels, verdicts, eigs[:, 0], traces):
        print(
            f"{label}: observable={'yes' if ok else 'no'}  "
            f"min_eigenvalue={min_eig:.10g}  trace={trace:.10g}"
        )
    return 0 if verdicts[0] else 1


def _cmd_emit(args: argparse.Namespace) -> int:
    for path in emit_scenarios(Path(args.dir)):
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already reported the problem
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_emit(args)
    except (OSError, ValueError, MemoryError, EfficiencyViolation) as err:
        # ModelDocumentError and EnumerationCapExceeded are ValueErrors
        print(f"sensor-shapley: error: {err}", file=sys.stderr)
        return {EnumerationCapExceeded: 3, EfficiencyViolation: 4}.get(type(err), 2)


if __name__ == "__main__":
    sys.exit(main())
