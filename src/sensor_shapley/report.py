"""Model file parsing and attribution report rendering.

Model files are strict JSON documents with exactly these fields:

    {
      "name": "optional display name",
      "state_matrix": [[...], ...],      n x n numbers
      "sensors": [{"name": "...", "row": [...]}, ...],
      "horizon_samples": 10
    }

Unknown and repeated fields are rejected everywhere, and names may hold no
control characters, so that fixture files stay unambiguous ground truth.
Parse failures are reported in three distinct stages, each with a location:
JSON syntax, document schema, and model validation.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any

from .model import _CONTROL_CHARACTER, InvalidModel, LtiModel, Sensor, _shown
from .shapley import AttributionResult, AxiomReport

__all__ = [
    "ModelDocument",
    "ModelDocumentError",
    "parse_model_document",
    "render_json",
    "render_model_document",
    "render_table",
]

_DOCUMENT_FIELDS = {"name", "state_matrix", "sensors", "horizon_samples"}
_REQUIRED_FIELDS = {"state_matrix", "sensors", "horizon_samples"}
_SENSOR_FIELDS = {"name", "row"}


class ModelDocumentError(ValueError):
    """A model file was rejected: a syntax, schema or validation error."""

    def __init__(self, kind: str, message: str, location: str | None = None):
        where = f" at {location}" if location else ""
        super().__init__(f"model document {kind} error{where}: {message}")


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model file: the model plus its display name."""

    name: str | None
    model: LtiModel


def _schema_error(message: str, location: str) -> ModelDocumentError:
    return ModelDocumentError("schema", message, location)


class _Object(dict):
    # A JSON object and the names it gives more than once, of which json.loads
    # would keep only the last value.
    def __init__(self, pairs):
        super().__init__(pairs)
        counts = Counter(name for name, _ in pairs) if len(self) < len(pairs) else {}
        self.repeated = sorted(name for name, count in counts.items() if count > 1)


def _check_fields(data: _Object, allowed: set, required: set, location: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        # a name with a control character is quoted, so it cannot reach the
        # terminal or split the message; the others are printed as given
        shown = (_shown(f) if _CONTROL_CHARACTER.search(f) else f for f in unknown)
        raise _schema_error(f"unknown field(s): {', '.join(shown)}", location)
    if data.repeated:
        raise _schema_error(f"duplicate field(s): {', '.join(data.repeated)}", location)
    missing = required - set(data)
    if missing:
        raise _schema_error(
            f"missing required field(s): {', '.join(sorted(missing))}", location
        )


# json.loads yields this in place of an integer literal beyond the float range
# (int() refuses those over 4300 digits), so the schema rejects it at its location.
_TOO_LARGE = object()


def _parse_int(token: str):
    try:
        value = int(token)
        float(value)
    except (ValueError, OverflowError):
        return _TOO_LARGE
    return value


def _number_row(value: Any, location: str) -> list:
    # The array as given: json.loads yields only int and float numbers (bool
    # is a type of its own), and LtiModel converts each to float64 once.
    if not isinstance(value, list) or not value:
        raise _schema_error("expected a non-empty array of numbers", location)
    for j, entry in enumerate(value):
        if entry is _TOO_LARGE:
            raise _schema_error("number is too large for a float", f"{location}[{j}]")
        if type(entry) not in (int, float):
            raise _schema_error(
                f"expected a number, got {_shown(entry)}", f"{location}[{j}]"
            )
    return value


def parse_model_document(text: str) -> ModelDocument:
    """Parse and validate a strict-JSON model document."""

    def reject_constant(token: str):
        raise ModelDocumentError(
            "syntax", f"non-standard JSON constant {token!r} is not allowed"
        )

    try:
        data = json.loads(
            text, object_pairs_hook=_Object, parse_constant=reject_constant,
            parse_int=_parse_int,
        )
    except json.JSONDecodeError as err:
        raise ModelDocumentError(
            "syntax", err.msg, f"line {err.lineno} column {err.colno}"
        ) from None
    except RecursionError:
        raise ModelDocumentError("syntax", "nesting is too deep") from None

    if not isinstance(data, dict):
        raise _schema_error("expected a JSON object", "document")
    _check_fields(data, _DOCUMENT_FIELDS, _REQUIRED_FIELDS, "document")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise _schema_error("expected a string", "name")
    if name is not None and _CONTROL_CHARACTER.search(name):
        raise _schema_error(f"control character in {_shown(name)}", "name")

    raw_matrix = data["state_matrix"]
    if not isinstance(raw_matrix, list) or not raw_matrix:
        raise _schema_error("expected a non-empty array of rows", "state_matrix")
    matrix = [
        _number_row(row, f"state_matrix[{i}]") for i, row in enumerate(raw_matrix)
    ]
    width = len(matrix[0])
    for i, row in enumerate(matrix):
        if len(row) != width:
            raise _schema_error(
                f"ragged matrix: row has {len(row)} entries, expected {width}",
                f"state_matrix[{i}]",
            )

    raw_sensors = data["sensors"]
    if not isinstance(raw_sensors, list):
        raise _schema_error("expected an array of sensor objects", "sensors")
    sensors = []
    for i, raw in enumerate(raw_sensors):
        location = f"sensors[{i}]"
        if not isinstance(raw, dict):
            raise _schema_error("expected a sensor object", location)
        _check_fields(raw, _SENSOR_FIELDS, _SENSOR_FIELDS, location)
        if not isinstance(raw["name"], str) or not raw["name"]:
            raise _schema_error("expected a non-empty string", f"{location}.name")
        sensors.append(
            Sensor(raw["name"], _number_row(raw["row"], f"{location}.row"))
        )

    horizon = data["horizon_samples"]
    if horizon is _TOO_LARGE:
        raise _schema_error("integer is too large", "horizon_samples")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise _schema_error(
            f"expected a positive integer, got {_shown(horizon)}", "horizon_samples"
        )

    try:
        model = LtiModel(matrix, tuple(sensors), horizon)
    except InvalidModel as err:
        raise ModelDocumentError("validation", "; ".join(err.violations)) from None
    return ModelDocument(name, model)


def render_model_document(doc: ModelDocument) -> str:
    """Serialize a model document to the strict JSON format, round-trip exact."""
    payload: dict[str, Any] = {}
    if doc.name is not None:
        payload["name"] = doc.name
    payload["state_matrix"] = doc.model.state_matrix.tolist()
    payload["sensors"] = [
        {"name": s.name, "row": s.row.tolist()} for s in doc.model.sensors
    ]
    payload["horizon_samples"] = doc.model.horizon_samples
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _sensor_rows(result: AttributionResult):
    # (name, standalone, shapley) per sensor, the numbers as Python floats
    values = result.standalone_values.tolist(), result.shapley_values.tolist()
    return zip(result.sensor_names, *values)


def render_json(
    model_name: str,
    result: AttributionResult,
    observable: bool,
    axioms: AxiomReport | None,
) -> str:
    """The report of an exact or sampled result as schema-stable JSON.

    Keys come in a fixed order, and numbers in Python's shortest exact
    round-trip form, so every bit of each double survives and byte-level
    diffs are meaningful. ``axioms`` is ``None`` for sampled results. Each
    sensor's ``share_of_total`` is omitted when the grand value is not
    positive.
    """
    method = {k: v for k, v in vars(result.method).items() if v is not None}
    grand = result.grand_value
    per_sensor = []
    for name, standalone, shapley in _sensor_rows(result):
        entry = {"name": name, "standalone": standalone, "shapley": shapley}
        if grand > 0:
            entry["share_of_total"] = shapley / grand
        per_sensor.append(entry)
    payload = {
        "model_name": model_name,
        "metric": result.metric.value,
        "horizon_samples": result.horizon_samples,
        "method": method,
        "observable": observable,
        "grand_value": grand,
        "efficiency_residual": result.efficiency_residual,
        "per_sensor": per_sensor,
        "axiom_report": (
            None if axioms is None else vars(axioms) | {"passed": axioms.passed}
        ),
    }
    # default=vars renders the axiom checks, which are dataclasses, in place
    return json.dumps(payload, indent=2, allow_nan=False, default=vars) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def render_table(
    model_name: str,
    result: AttributionResult,
    observable: bool,
    axioms: AxiomReport | None,
) -> str:
    """The report as a human-readable table, one row per sensor.
    ``axioms`` is ``None`` for sampled results."""
    metric = result.metric.value
    header = ("Sensor", "Value Function", "Standalone Value", "Shapley Value")
    rows = [
        (name, metric, _fmt(standalone), _fmt(shapley))
        for name, standalone, shapley in _sensor_rows(result)
    ]
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))
    ]

    def line(cells) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    method = result.method.kind
    if method != "exact":
        method += (
            f" ({result.method.num_permutations} permutations, "
            f"seed {result.method.seed})"
        )
    out = [
        f"model: {model_name}    metric: {metric}    "
        f"horizon samples: {result.horizon_samples}    method: {method}",
        "",
        line(header),
        line(tuple("-" * w for w in widths)),
    ]
    out.extend(line(r) for r in rows)
    out.append("")
    out.append(f"grand value:         {_fmt(result.grand_value)}")
    out.append(f"efficiency residual: {_fmt(result.efficiency_residual)}")
    out.append(f"fully observable:    {'yes' if observable else 'no'}")
    if axioms is not None:
        pairs = (
            "; ".join(f"({', '.join(p.sensors)})" for p in axioms.symmetric_pairs)
            or "none"
        )
        dummies = ", ".join(d.name for d in axioms.dummy_sensors) or "none"
        out.append(
            f"axioms:              {'pass' if axioms.passed else 'FAIL'} "
            f"(symmetric pairs: {pairs}; dummy sensors: {dummies})"
        )
    return "\n".join(out) + "\n"
