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

Every metric is evaluated on a stack of Gramians at once (``evaluate``);
the exact value table, the sampler's prefix coalitions and the lines of
``check`` all go through it. The value of the empty coalition is 0 for
both metrics: the empty energy sum for the trace, and the PSD floor for the
minimum eigenvalue.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .gramian import PSD_FLOOR, PSD_RTOL, coalition_gramians, per_sensor_gramians
from .model import ENUMERATION_CAP, LtiModel, require_enumerable

__all__ = [
    "ValueFunctionKind",
    "coalition_values",
    "evaluate",
    "value_table",
]

# The coalition Gramians are stacked and evaluated in chunks of about this
# many bytes, so a table's peak memory does not grow with 2^p.
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
    input). Non-finite Gramians and minimum eigenvalues below
    -max(PSD_RTOL * lambda_max, PSD_FLOOR) are rejected; minimum eigenvalues
    within that tolerance below zero are clamped to 0, so the zero Gramian
    (empty coalition) evaluates to exactly 0 for every metric.
    """
    if not np.all(np.isfinite(gramians)):
        raise ValueError("Gramian contains non-finite entries")
    if kind is ValueFunctionKind.TRACE:
        return np.trace(gramians, axis1=-2, axis2=-1)
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        eigs = np.linalg.eigvalsh(gramians)
        lo = eigs[..., 0]
        beyond = lo < -np.maximum(PSD_RTOL * eigs[..., -1], PSD_FLOOR)
        if np.any(beyond):
            raise ValueError(
                f"Gramian is not positive semidefinite (minimum eigenvalue "
                f"{np.min(lo[beyond]):.6e})"
            )
        # A rank-deficient Gramian reports exactly "unobservable", not a tiny
        # negative eigensolver residue; np.where keeps the sign of a -0.0.
        return np.where(lo >= 0.0, lo, 0.0)
    raise ValueError(f"no evaluator registered for {kind!r}")


def coalition_values(
    bank: np.ndarray, kind: ValueFunctionKind, masks: np.ndarray | None = None
) -> np.ndarray:
    """The metric on each coalition of a batch of membership bitmasks.

    ``masks`` is encoded as for
    :func:`~sensor_shapley.gramian.coalition_gramians`. Without ``masks``,
    every one of the 2^p coalitions is valued and the result is the
    read-only table indexed by bitmask, with the empty coalition at exactly
    0. Gramians are stacked and evaluated in chunks of bounded memory.
    """
    n = bank.shape[-1]
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    if masks is None:
        return _table(bank, kind, chunk)
    values = np.empty(len(masks))
    for start in range(0, len(masks), chunk):
        batch = masks[start : start + chunk]
        values[start : start + chunk] = evaluate(kind, coalition_gramians(bank, batch))
    return values


def _table(bank: np.ndarray, kind: ValueFunctionKind, chunk: int) -> np.ndarray:
    # All 2^p Gramians over the low c sensors (2^c <= chunk) by the
    # highest-set-bit recursion W[2^i : 2^(i+1)] = W[:2^i] + G[i]; each chunk
    # of 2^c masks then adds its high members in ascending order. Members are
    # summed in ascending sensor index, as in coalition_gramians, so the bits
    # match it.
    p = bank.shape[0]
    c = min(p, chunk.bit_length() - 1)
    low = np.zeros((1 << c,) + bank.shape[1:])
    table = np.empty(1 << p)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(c):
            np.add(low[: 1 << i], bank[i], out=low[1 << i : 2 << i])
        for start in range(0, 1 << p, 1 << c):
            high = [i for i in range(c, p) if start >> i & 1]
            stack = low + bank[high[0]] if high else low
            for i in high[1:]:
                stack += bank[i]
            table[start : start + (1 << c)] = evaluate(kind, stack)
    table[0] = 0.0
    table.setflags(write=False)
    return table


def value_table(
    model: LtiModel, kind: ValueFunctionKind, *, cap: int = ENUMERATION_CAP
) -> np.ndarray:
    """Evaluate the metric on every one of the 2^p coalitions of a model.

    Returns the 2^p values indexed by membership bitmask (bit i set means
    sensor i is a member). The coalition Gramians are sums of the per-sensor
    bank, so the model's dynamics are only propagated p times regardless of
    how many coalitions exist. Sensor counts above ``cap`` raise
    :class:`~sensor_shapley.model.EnumerationCapExceeded`.
    """
    require_enumerable(model, cap)
    return coalition_values(per_sensor_gramians(model), kind)
