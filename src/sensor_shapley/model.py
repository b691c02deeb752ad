"""Domain types for discrete-time LTI models and sensors.

The dynamics are x[k+1] = A x[k] with per-sensor outputs y_i[k] = c_i x[k],
where A is the square state matrix and c_i is the row vector of sensor i.
Outputs are accumulated over a finite window of ``horizon_samples`` time
steps (k = 0 .. horizon_samples - 1).

A sensor coalition is not a type of its own: everywhere in the package it is
a membership bitmask over the model's sensor indices (bit i set means sensor
i is a member).

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "InvalidModel",
    "LtiModel",
    "Sensor",
    "ValidationResult",
    "require_enumerable",
    "validate_model",
]

# Exact coalition enumeration touches 2^p subsets; above this sensor count
# callers are pointed at the permutation-sampling estimator instead.
ENUMERATION_CAP = 24


class EnumerationCapExceeded(ValueError):
    """Raised when an exact 2^p enumeration would exceed ``ENUMERATION_CAP``."""


class InvalidModel(ValueError):
    """Raised when an ``LtiModel`` is built from malformed data; ``violations``
    holds every violated invariant, as ``validate_model`` reports them."""

    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("invalid model: " + "; ".join(violations))


# Offending values and sensor names are quoted in errors up to this many
# characters, so a large array or a long name does not become a line of
# kilobytes.
_SHOWN_CHARS = 80


def _shown(value) -> str:
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return text[: _SHOWN_CHARS - 3] + "..."


# The control characters, Unicode category Cc. In a name, a line break would
# split a report's lines and an escape sequence would reach the terminal.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f]")


def _as_readonly_float_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Sensor:
    """A single scalar-output sensor: a name and its measurement row.

    ``row`` has one entry per model state; the sensor observes the linear
    combination row @ x.
    """

    name: str
    row: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row", _as_readonly_float_array(self.row))


@dataclass(frozen=True, eq=False)
class LtiModel:
    """Autonomous discrete-time LTI system with named scalar sensors.

    Construction coerces the arrays, then raises :class:`InvalidModel`
    listing every violation ``validate_model`` finds, so every ``LtiModel``
    that exists is valid and no other code checks a model again.
    """

    state_matrix: np.ndarray
    sensors: tuple[Sensor, ...]
    horizon_samples: int

    def __post_init__(self):
        object.__setattr__(
            self, "state_matrix", _as_readonly_float_array(self.state_matrix)
        )
        object.__setattr__(self, "sensors", tuple(self.sensors))
        violations = validate_model(self).violations
        if violations:
            raise InvalidModel(violations)
        object.__setattr__(self, "horizon_samples", int(self.horizon_samples))

    @property
    def state_dimension(self) -> int:
        return self.state_matrix.shape[0]

    @property
    def sensor_count(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of ``validate_model``: empty ``violations`` means the model is ok."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: LtiModel) -> ValidationResult:
    """Check every model invariant and return the violations found, as data
    so that they can all be reported at once.

    Each violation message names the offending field. A model is valid iff
    the state matrix is square and finite, every sensor row is a finite
    vector of matching length with a unique non-empty name free of control
    characters, and the horizon is a positive sample count.
    """
    violations: list[str] = []

    a = model.state_matrix
    square = a.ndim == 2 and a.shape[0] == a.shape[1] and a.shape[0] >= 1
    if not square:
        violations.append(f"state_matrix: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        violations.append(f"state_matrix: non-finite entry at {idx}")

    n = a.shape[0] if square else None
    if not model.sensors:
        violations.append("sensors: at least one sensor is required")

    seen: set[str] = set()
    for i, sensor in enumerate(model.sensors):
        label = f"sensors[{i}]"
        if not isinstance(sensor.name, str) or not sensor.name:
            violations.append(f"{label}.name: must be a non-empty string")
        elif _CONTROL_CHARACTER.search(sensor.name):
            violations.append(
                f"{label}.name: control character in {_shown(sensor.name)}"
            )
        elif sensor.name in seen:
            violations.append(
                f"{label}.name: duplicate sensor name {_shown(sensor.name)}"
            )
        else:
            seen.add(sensor.name)
        row = sensor.row
        if row.ndim != 1:
            violations.append(f"{label}.row: expected a vector, got shape {row.shape}")
            continue
        if n is not None and row.shape[0] != n:
            violations.append(
                f"{label}.row: row length mismatch (got {row.shape[0]}, "
                f"state dimension is {n})"
            )
        if not np.all(np.isfinite(row)):
            j = int(np.argwhere(~np.isfinite(row))[0][0])
            violations.append(f"{label}.row: non-finite entry at index {j}")

    h = model.horizon_samples
    if not isinstance(h, Integral) or isinstance(h, bool) or h < 1:
        violations.append(f"horizon_samples: must be a positive integer, got {h!r}")

    return ValidationResult(tuple(violations))


def require_enumerable(model: LtiModel) -> None:
    """Refuse sensor counts above ``ENUMERATION_CAP`` with
    :class:`EnumerationCapExceeded` before any 2^p work starts."""
    p = model.sensor_count
    if p > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"a value table over {p} sensors would hold 2^{p} coalitions, "
            f"above the cap of {ENUMERATION_CAP}; use the permutation-sampling "
            f"estimator (shapley_sampled) instead"
        )
