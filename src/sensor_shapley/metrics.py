"""Value functions mapping coalition Gramians to scalar observability degrees.

Two metrics ship:

* trace: total output energy captured over the window. Additive over
  sensors, so a coalition's value is the sum of its members' standalone
  values and no interaction between sensors is ever credited.
* minimum eigenvalue: output energy of the weakest state direction. Zero
  exactly when the coalition loses observability, and non-additive, so it
  rewards sensors that repair each other's blind directions.

The log-determinant is deliberately not offered: coalitions that lose
observability have singular Gramians, where it is undefined.

Each metric names what it reads of a Gramian: the trace its diagonal, the
minimum eigenvalue the whole matrix. ``evaluate`` reduces a stack of
Gramians to those entries and finishes the metric on them. Coalition sums
add entry by entry, so the exact value table and the sampler's prefix
coalitions reduce the per-sensor bank first and sum only what is read: the
``(p, n)`` diagonals for the trace, the ``(p, n, n)`` bank for min-eig. The
value of the empty coalition is 0 for both metrics: the empty energy sum for
the trace, and the PSD floor for the minimum eigenvalue.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .gramian import (
    _eigenvalues,
    _low_table,
    coalition_gramians,
    per_sensor_gramians,
)
from .model import LtiModel, require_enumerable

__all__ = [
    "ValueFunctionKind",
    "coalition_values",
    "evaluate",
    "value_table",
]

# Coalitions are valued in chunks of about this many bytes of Gramians, so a
# table's peak memory does not grow with 2^p; the trace's chunks hold only
# the diagonals, 1/n of that.
_CHUNK_BYTES = 1 << 24


class ValueFunctionKind(Enum):
    """Selector for the observability-degree metric applied to a Gramian."""

    TRACE = "trace"
    MIN_EIGENVALUE = "min-eig"

    @classmethod
    def from_cli_name(cls, name: str) -> "ValueFunctionKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(
            f"unknown metric {name!r}; expected one of "
            + ", ".join(repr(k.value) for k in cls)
        )

    @property
    def cli_name(self) -> str:
        return self.value


def evaluate(kind: ValueFunctionKind, gramians: np.ndarray) -> np.ndarray:
    """Scalar observability degree of each Gramian in a ``(k, n, n)`` stack.

    Returns one value per Gramian (a 0-d array for a single ``(n, n)``
    input). Non-finite entries the metric reads, traces beyond the float
    range and minimum eigenvalues below -max(PSD_RTOL * lambda_max,
    PSD_FLOOR) are rejected; minimum eigenvalues within that tolerance below
    zero are clamped to 0, so the zero Gramian (empty coalition) evaluates to
    exactly 0 for every metric.
    """
    return _finish(kind, _reduce(kind, gramians))


def _reduce(kind: ValueFunctionKind, gramians: np.ndarray) -> np.ndarray:
    # The entries of each Gramian the metric reads: the diagonal for the
    # trace, the whole matrix for the minimum eigenvalue.
    if kind is ValueFunctionKind.TRACE:
        return np.diagonal(gramians, axis1=-2, axis2=-1)
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        return gramians
    raise ValueError(f"no evaluator registered for {kind!r}")


def _finish(kind: ValueFunctionKind, entries: np.ndarray) -> np.ndarray:
    # The metric of each reduced Gramian. np.trace is the diagonal's sum
    # over its last axis, so the trace keeps its bits. A diagonal of PSD
    # sums bounds every off-diagonal entry (|W_ij| <= sqrt(W_ii W_jj)), so
    # checking it alone still catches a non-finite sum.
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        return _eigenvalues(entries)[..., 0].copy()
    if not np.all(np.isfinite(entries)):
        raise ValueError("Gramian contains non-finite entries")
    with np.errstate(over="ignore"):
        traces = entries.sum(-1)
    if not np.all(np.isfinite(traces)):
        raise ValueError(
            "Gramian trace overflows: its diagonal sums beyond the float range"
        )
    return traces


def coalition_values(
    bank: np.ndarray, kind: ValueFunctionKind, masks: np.ndarray | None = None
) -> np.ndarray:
    """The metric on each coalition of a batch of membership bitmasks.

    ``masks`` is encoded as for
    :func:`~sensor_shapley.gramian.coalition_gramians`. Without ``masks``,
    every one of the 2^p coalitions is valued and the result is the
    read-only table indexed by bitmask, with the empty coalition at exactly
    0. Only the bank entries the metric reads are summed (the diagonals for
    the trace), in chunks of bounded memory.
    """
    n = bank.shape[-1]
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    reduced = _reduce(kind, bank)
    if masks is None:
        return _table(reduced, kind, chunk)
    values = np.empty(len(masks))
    for start in range(0, len(masks), chunk):
        batch = masks[start : start + chunk]
        values[start : start + chunk] = _finish(
            kind, coalition_gramians(reduced, batch)
        )
    return values


def _table(reduced: np.ndarray, kind: ValueFunctionKind, chunk: int) -> np.ndarray:
    # The 2^c sums over the low c sensors (2^c <= chunk), then each chunk of
    # 2^c masks adds its high members in ascending order. Members are summed
    # in ascending sensor index, as in coalition_gramians, so the bits match
    # it.
    p = reduced.shape[0]
    c = min(p, chunk.bit_length() - 1)
    low = _low_table(reduced, c)
    table = np.empty(1 << p)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, 1 << p, 1 << c):
            high = [i for i in range(c, p) if start >> i & 1]
            stack = low + reduced[high[0]] if high else low
            for i in high[1:]:
                stack += reduced[i]
            table[start : start + (1 << c)] = _finish(kind, stack)
    table[0] = 0.0
    table.setflags(write=False)
    return table


def value_table(model: LtiModel, kind: ValueFunctionKind) -> np.ndarray:
    """Evaluate the metric on every one of the 2^p coalitions of a model.

    Returns the 2^p values indexed by membership bitmask (bit i set means
    sensor i is a member). The coalition Gramians are sums of the per-sensor
    bank, which one power chain of h state-matrix products builds, so the
    dynamics are propagated once however many coalitions exist. Sensor
    counts above ``ENUMERATION_CAP`` raise
    :class:`~sensor_shapley.model.EnumerationCapExceeded`.
    """
    require_enumerable(model)
    return coalition_values(per_sensor_gramians(model), kind)
