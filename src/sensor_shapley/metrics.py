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
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .gramian import _eigenvalues, per_sensor_gramians
from .model import LtiModel, require_enumerable

__all__ = [
    "ValueFunctionKind",
    "coalition_values",
    "evaluate",
    "full_gramian",
    "pack_masks",
    "value_table",
]

# Coalitions are valued in chunks of about this many bytes of full n x n
# Gramians, so a table's memory does not grow with 2^p. A min-eig table's
# chunk holds its low table and one solve buffer, each a chunk of whole
# matrices.
_CHUNK_BYTES = 1 << 23


class ValueFunctionKind(Enum):
    """Selector for the observability-degree metric applied to a Gramian."""

    TRACE = "trace"
    MIN_EIGENVALUE = "min-eig"

    @classmethod
    def from_cli_name(cls, name: str) -> "ValueFunctionKind":
        return cls(name)


def evaluate(kind: ValueFunctionKind, gramians: np.ndarray) -> np.ndarray:
    """Scalar observability degree of each Gramian in a ``(k, n, n)`` stack.

    Returns one value per Gramian (a 0-d array for a single ``(n, n)``
    input); the zero Gramian is worth exactly 0 for both metrics. Raises
    ``ValueError`` for non-finite entries the metric reads, a trace beyond
    the float range or a minimum eigenvalue below the PSD tolerance.
    """
    if kind is ValueFunctionKind.TRACE:
        return _traces(np.diagonal(gramians, axis1=-2, axis2=-1))
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        return _eigenvalues(gramians)[..., 0].copy()
    raise ValueError(f"no evaluator registered for {kind!r}")


def _read(kind: ValueFunctionKind, n: int) -> np.ndarray:
    # The flat indices, into a row-major (n, n) Gramian, of the entries the
    # metric reads: the diagonal for the trace, the lower triangle row by
    # row for the minimum eigenvalue (all that eigvalsh reads).
    if kind is ValueFunctionKind.TRACE:
        return np.arange(0, n * n, n + 1)
    if kind is ValueFunctionKind.MIN_EIGENVALUE:
        return np.flatnonzero(np.tri(n, dtype=bool))
    raise ValueError(f"no evaluator registered for {kind!r}")


def _traces(diagonals: np.ndarray) -> np.ndarray:
    # The sum of each (..., n) diagonal over its last axis, as np.trace
    # computes it (pairwise from n = 8, so another axis would move bits). A
    # diagonal of PSD sums bounds every off-diagonal entry
    # (|W_ij| <= sqrt(W_ii W_jj)), so checking it alone catches a non-finite sum.
    if not np.all(np.isfinite(diagonals)):
        raise ValueError("Gramian contains non-finite entries")
    with np.errstate(over="ignore"):
        traces = diagonals.sum(-1)
    if not np.all(np.isfinite(traces)):
        raise ValueError(
            "Gramian trace overflows: its diagonal sums beyond the float range"
        )
    return traces


def _finish(
    kind: ValueFunctionKind, sums: np.ndarray, read: np.ndarray | None = None
) -> np.ndarray:
    # The metric of each of k coalitions from its sums: (k, n, n) whole
    # Gramians, solved as they are, or (k, e) sums of the entries _read names,
    # in any layout: row-major (k, n) diagonals for _traces (copied into read
    # where given), or triangles in zeroed (k, n, n) matrices.
    if sums.ndim == 3:
        return _eigenvalues(sums)[:, 0].copy()
    if kind is ValueFunctionKind.TRACE:
        if read is None:
            return _traces(np.ascontiguousarray(sums))
        np.copyto(read, sums)
        return _traces(read)
    k, e = sums.shape
    n = math.isqrt(2 * e)  # e = n (n + 1) / 2
    read = np.zeros((k, n, n))
    read.reshape(k, n * n)[:, _read(kind, n)] = sums
    del sums  # a caller's temporary sums need not live through the solve
    return _eigenvalues(read)[:, 0].copy()


def pack_masks(members: np.ndarray) -> np.ndarray:
    """Pack a ``(k, p)`` boolean membership matrix into ``(k, w)`` uint64
    bitmask words, w = ceil(p / 64), sensor i at bit i % 64 of word i // 64:
    the encoding ``coalition_values`` takes for any sensor count."""
    members = np.asarray(members, dtype=bool)
    k, p = members.shape
    padded = np.zeros((k, -(-p // 64) * 64), dtype=bool)
    padded[:, :p] = members
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _mask_words(masks, sensor_count: int) -> np.ndarray:
    # (w, k) uint64 words, row j holding bits 64j..64j+63 of every
    # coalition, from bitmasks as coalition_values takes them.
    words = np.asarray(masks)
    if words.ndim == 1:
        words = words[:, None]
    words = np.ascontiguousarray(words.T, dtype=np.uint64)
    union = np.bitwise_or.reduce(words, axis=1)
    extra = sum(int(word) << 64 * j for j, word in enumerate(union)) >> sensor_count
    if extra:
        raise ValueError(
            f"coalition references sensor index "
            f"{sensor_count + (extra & -extra).bit_length() - 1} "
            f"but only {sensor_count} sensors exist"
        )
    return words


def _low_table(members: np.ndarray, c: int) -> np.ndarray:
    # The (2^c, ...) sums of (p, ...) members over sensors 0..c-1, row m the
    # coalition of bitmask m, by the highest-set-bit recursion
    # W[2^i : 2^(i+1)] = W[:2^i] + G[i] from +0.0. (p, e) entries are laid
    # out entry-major, so .T is the contiguous (e, 2^c) table.
    order = "F" if members.ndim == 2 else "C"
    low = np.empty((1 << c, *members.shape[1:]), order=order)
    low[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(c):
            np.add(low[: 1 << i], members[i], out=low[1 << i : 2 << i])
    return low


def _coalition_sums(entries: np.ndarray, masks) -> np.ndarray:
    # The (k, e) sums of (p, e) per-sensor entries over bitmasks, a view of
    # entry-major memory: row r of its .T holds entry r of all k sums. The
    # batch takes its low members' sums from the partial table over the
    # lowest c sensors, 2^(c-1) <= k < 2^c; each higher sensor is then one
    # contiguous pass that adds its entries, or +0.0 for coalitions without
    # it, chosen by a bitwise AND of their int64 view with an all-ones or
    # all-zeros word.
    # Every sum starts from +0.0, and x + 0.0 keeps every other x, inf and
    # NaN too: the bits of adding members one at a time in ascending index
    # (a 0/1 multiply would not be: inf * 0 is NaN).
    entries = np.ascontiguousarray(entries, dtype=np.float64)
    p = entries.shape[0]
    words = _mask_words(masks, p)
    k = words.shape[1]
    c = min(p, k.bit_length())
    sums = np.take(_low_table(entries, c).T, words[0] & ((1 << c) - 1), axis=1)
    bits = entries.view(np.int64)
    select = np.empty(k, dtype=np.uint64)
    addend = np.empty_like(sums)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(c, p):
            # bit i moved to the sign bit and spread: all ones for members
            np.left_shift(words[i >> 6], 63 - (i & 63), out=select)
            np.right_shift(select.view(np.int64), 63, out=select.view(np.int64))
            np.bitwise_and(
                bits[i, :, None], select.view(np.int64), out=addend.view(np.int64)
            )
            np.add(sums, addend, out=sums)
    return sums.T


def full_gramian(bank: np.ndarray) -> np.ndarray:
    """The full-coalition Gramian: the bank summed in ascending sensor index,
    the bits of the coalition sums for the all-members mask, as a fresh
    array the caller owns."""
    out = np.zeros(bank.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for gram in bank:
            out += gram
    return out


def coalition_values(
    bank: np.ndarray, kind: ValueFunctionKind, masks: np.ndarray | None = None
) -> np.ndarray:
    """The metric on each coalition of a batch of membership bitmasks.

    ``masks`` is a ``(k,)`` integer array (under 64 sensors) or ``(k, w)``
    ``pack_masks`` words (any sensor count). Without ``masks``, every one of
    the 2^p coalitions is valued and the result is the read-only table
    indexed by bitmask, with the empty coalition at exactly 0. A min-eig
    table sums whole bank members; trace tables and batches sum only the
    bank entries the metric reads. Coalitions are summed in chunks of
    bounded memory, and the values have the bits of ``evaluate`` on the
    coalitions' full Gramians.
    """
    p, n = len(bank), bank.shape[-1]
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    if masks is None and kind is ValueFunctionKind.MIN_EIGENVALUE:
        return _table(bank, kind, chunk)
    entries = bank.reshape(p, n * n)[:, _read(kind, n)]
    if masks is None:
        return _table(entries, kind, chunk)
    values = np.empty(len(masks))
    for start in range(0, len(masks), chunk):
        batch = masks[start : start + chunk]
        values[start : start + chunk] = _finish(kind, _coalition_sums(entries, batch))
    return values


def _table(members: np.ndarray, kind: ValueFunctionKind, chunk: int) -> np.ndarray:
    # Min-eig tables sum whole (n, n) members coalition-major, straight into
    # the stack _eigenvalues solves (members are symmetric bit for bit, so
    # both triangles hold the bits of the entries _read names); trace tables
    # sum diagonals entry-major. One chunk is the table over all p sensors.
    # Otherwise each chunk of 2^c masks adds its high members to the table
    # over the low c sensors, into one buffer every chunk reuses, in
    # ascending index as _coalition_sums does.
    p = len(members)
    c = min(p, chunk.bit_length() - 1)
    low = _low_table(members, c)
    if c == p:
        table = _finish(kind, low)
    else:
        sums = np.empty_like(low)
        read = np.empty(low.shape) if kind is ValueFunctionKind.TRACE else None
        table = np.empty(1 << p)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, 1 << p, 1 << c):
                high = [i for i in range(c, p) if start >> i & 1]
                if high:
                    np.add(low, members[high[0]], out=sums)
                for i in high[1:]:
                    np.add(sums, members[i], out=sums)
                values = _finish(kind, sums if high else low, read)
                table[start : start + (1 << c)] = values
    table[0] = 0.0
    table.setflags(write=False)
    return table


def value_table(model: LtiModel, kind: ValueFunctionKind) -> np.ndarray:
    """The read-only table of the metric on all 2^p coalitions of a model,
    indexed by membership bitmask: ``coalition_values`` on its bank. Sensor
    counts above ``ENUMERATION_CAP`` raise
    :class:`~sensor_shapley.model.EnumerationCapExceeded`.
    """
    require_enumerable(model)
    return coalition_values(per_sensor_gramians(model), kind)
