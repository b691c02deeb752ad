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
minimum eigenvalue its lower triangle (all that ``eigvalsh`` reads). The
exact value table and the sampler's prefix coalitions sum only those
entries of the bank, entry-major (see ``gramian``), then the trace sums a
row-major ``(k, n)`` copy over its rows, as ``np.trace`` does (pairwise from
n = 8, so a column sum would move bits), and the minimum eigenvalue
scatters the triangles into zeroed ``(k, n, n)`` matrices: the bits of the
metric on full Gramians. The empty coalition is worth 0 for both metrics.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .gramian import _coalition_sums, _eigenvalues, _low_table, per_sensor_gramians
from .model import LtiModel, require_enumerable

__all__ = [
    "ValueFunctionKind",
    "coalition_values",
    "evaluate",
    "value_table",
]

# Coalitions are valued in chunks of about this many bytes of full n x n
# Gramians, so a table's memory does not grow with 2^p. A min-eig table
# also keeps its partial table and the chunk's sums, about half that each.
_CHUNK_BYTES = 1 << 23


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
    if kind is ValueFunctionKind.TRACE:
        return _traces(np.diagonal(gramians, axis1=-2, axis2=-1))
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        return _eigenvalues(gramians)[..., 0].copy()
    raise ValueError(f"no evaluator registered for {kind!r}")


def _read(kind: ValueFunctionKind, n: int) -> np.ndarray:
    # The flat indices, into a row-major (n, n) Gramian, of the entries the
    # metric reads: the diagonal for the trace, the lower triangle row by
    # row for the minimum eigenvalue.
    if kind is ValueFunctionKind.TRACE:
        return np.arange(0, n * n, n + 1)
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        return np.flatnonzero(np.tri(n, dtype=bool))
    raise ValueError(f"no evaluator registered for {kind!r}")


def _traces(diagonals: np.ndarray) -> np.ndarray:
    # The sum of each (..., n) diagonal over its last axis, which is what
    # np.trace computes, so the trace keeps its bits. A diagonal of PSD
    # sums bounds every off-diagonal entry (|W_ij| <= sqrt(W_ii W_jj)), so
    # checking it alone still catches a non-finite sum.
    if not np.all(np.isfinite(diagonals)):
        raise ValueError("Gramian contains non-finite entries")
    with np.errstate(over="ignore"):
        traces = diagonals.sum(-1)
    if not np.all(np.isfinite(traces)):
        raise ValueError(
            "Gramian trace overflows: its diagonal sums beyond the float range"
        )
    return traces


def _buffer(kind: ValueFunctionKind, e: int, k: int) -> np.ndarray:
    # The zeroed array the metric reads k coalitions of e entries from.
    if kind is ValueFunctionKind.TRACE:
        return np.zeros((k, e))
    n = math.isqrt(2 * e)  # e = n (n + 1) / 2
    return np.zeros((k, n, n))


def _finish(
    kind: ValueFunctionKind, sums: np.ndarray, read: np.ndarray | None = None
) -> np.ndarray:
    # The metric of each column of (e, k) sums of the entries _read names,
    # copied into read (a fresh _buffer by default).
    e, k = sums.shape
    if read is None:
        read = _buffer(kind, e, k)
    if kind is ValueFunctionKind.TRACE:
        np.copyto(read, sums.T)
        return _traces(read)
    n = read.shape[-1]
    read.reshape(k, n * n)[:, _read(kind, n)] = sums.T
    del sums  # a caller's temporary sums need not live through the solve
    return _eigenvalues(read)[:, 0].copy()


def coalition_values(
    bank: np.ndarray, kind: ValueFunctionKind, masks: np.ndarray | None = None
) -> np.ndarray:
    """The metric on each coalition of a batch of membership bitmasks.

    ``masks`` is encoded as for
    :func:`~sensor_shapley.gramian.coalition_gramians`. Without ``masks``,
    every one of the 2^p coalitions is valued and the result is the
    read-only table indexed by bitmask, with the empty coalition at exactly
    0. Only the bank entries the metric reads are summed, in chunks of
    bounded memory; the values have the bits of ``evaluate`` on the
    coalitions' full Gramians.
    """
    p, n = len(bank), bank.shape[-1]
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    entries = bank.reshape(p, n * n)[:, _read(kind, n)]
    if masks is None:
        return _table(entries, kind, chunk)
    values = np.empty(len(masks))
    for start in range(0, len(masks), chunk):
        batch = masks[start : start + chunk]
        values[start : start + chunk] = _finish(kind, _coalition_sums(entries, batch))
    return values


def _table(entries: np.ndarray, kind: ValueFunctionKind, chunk: int) -> np.ndarray:
    # One chunk is the partial table over all p sensors, passed as a
    # temporary. Otherwise each chunk of 2^c masks adds its high members to
    # the partial table over the low c sensors, in buffers every chunk
    # reuses. Members are added in ascending index from +0.0, as in a batch.
    p, e = entries.shape
    c = min(p, chunk.bit_length() - 1)
    if c == p:
        table = _finish(kind, _low_table(entries, p))
    else:
        low = _low_table(entries, c)
        sums, read = np.empty_like(low), _buffer(kind, e, 1 << c)
        table = np.empty(1 << p)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, 1 << p, 1 << c):
                high = [i for i in range(c, p) if start >> i & 1]
                if high:
                    np.add(low, entries[high[0], :, None], out=sums)
                for i in high[1:]:
                    np.add(sums, entries[i, :, None], out=sums)
                values = _finish(kind, sums if high else low, read)
                table[start : start + (1 << c)] = values
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
