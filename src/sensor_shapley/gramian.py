"""Observability Gramians for sensor coalitions.

A coalition S is a membership bitmask: bit i set means sensor i is a member.
For stacked measurement rows C_S, the observability matrix O_S over K+1
samples is the row-stack of C_S A^k for k = 0..K, and the observability
Gramian is

    W_S = sum_k (A^T)^k C_S^T C_S A^k = O_S^T O_S.

W_S is symmetric positive semidefinite and additive over sensors: W_S = sum
of the single-sensor Gramians of the members of S. That additivity is what
makes coalition values cheap, and it is the only way W_S is built here: the
bank of per-sensor Gramians is built once (``per_sensor_gramians``, a
``(p, n, n)`` array) and the Gramians of any batch of coalitions are stacked
n x n sums of bank members (``coalition_gramians``). A batch's sums start
from a partial table over the lowest c sensors (2^c at most the batch size)
and add each coalition's higher members in ascending index, the bits of
adding members one at a time; the working set is at most twice the batch's
output. The bank propagates A^k once and forms every sensor's block c_i A^k
from it. Overflow is caught when the bank is built, naming the sensor. The
PSD rule (``_eigenvalues``) runs on the bank, in the min-eig ``evaluate``,
which also catches non-finite coalition sums, in ``is_observable`` and on
the stack ``check`` prints. Symmetry holds by construction: entries (i, j)
and (j, i) are the same products added in the same order, so they are never
checked or symmetrized.

The system is observable over the window iff the full-coalition Gramian is
positive definite, i.e. its minimum eigenvalue is strictly positive.

Summation order is fixed (ascending sensor index, ascending k), so results
are deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

from .model import LtiModel, _shown

__all__ = [
    "coalition_gramians",
    "full_gramian",
    "is_observable",
    "pack_masks",
    "per_sensor_gramians",
]

# Eigenvalues may dip this far below zero (relative to the largest one,
# floored absolutely) before a Gramian is rejected as non-PSD.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12


def _eigenvalues(gramians: np.ndarray) -> np.ndarray:
    # The ascending eigenvalues of each Gramian of an (n, n) matrix or
    # (k, n, n) stack, under the one numerical contract on Gramians: entries
    # are finite, and minimum eigenvalues below
    # -max(PSD_RTOL * lambda_max, PSD_FLOOR) are rejected while those within
    # that tolerance below zero are clamped to 0.
    if not np.all(np.isfinite(gramians)):
        raise ValueError("Gramian contains non-finite entries")
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
    eigs[..., 0] = np.where(lo >= 0.0, lo, 0.0)
    return eigs


def per_sensor_gramians(model: LtiModel) -> np.ndarray:
    """The bank: all p single-sensor Gramians, built once, as a read-only
    ``(p, n, n)`` array index-aligned with the model's sensors.

    Each step of one power chain adds the outer product of c_i A^k with
    itself to sensor i's slot. Dynamics that overflow within the window are
    rejected with a ``ValueError`` naming the sensor and the horizon; the
    members then pass the PSD check as one stack.
    """
    n, h = model.state_dimension, model.horizon_samples
    rows = [sensor.row[None, :] for sensor in model.sensors]
    bank = np.zeros((len(rows), n, n))
    power = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(h):
            for slot, row in zip(bank, rows):
                block = row @ power
                slot += block.T * block
            power = power @ model.state_matrix
    bad = np.flatnonzero(~np.isfinite(bank).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(
            f"Gramian of sensor {_shown(model.sensors[bad[0]].name)} overflows to "
            f"non-finite values over {h} samples: the dynamics grow too fast "
            f"for this horizon"
        )
    _eigenvalues(bank)
    bank.setflags(write=False)
    return bank


def pack_masks(members: np.ndarray) -> np.ndarray:
    """Pack a ``(k, p)`` boolean membership matrix into ``(k, w)`` uint64
    bitmask words, w = ceil(p / 64), sensor i at bit i % 64 of word i // 64:
    the encoding ``coalition_gramians`` takes for any sensor count."""
    members = np.asarray(members, dtype=bool)
    k, p = members.shape
    padded = np.zeros((k, -(-p // 64) * 64), dtype=bool)
    padded[:, :p] = members
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _membership(masks, sensor_count: int) -> np.ndarray:
    # (p, k) booleans, row i marking the coalitions that hold sensor i, from
    # bitmasks: a (k,) integer array, or (k, w) uint64 words with sensor i at
    # bit i % 64 of word i // 64.
    words = np.asarray(masks)
    if words.ndim == 1:
        words = words[:, None]
    bits = np.unpackbits(
        np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
        axis=1,
        bitorder="little",
    )
    extra = np.nonzero(bits[:, sensor_count:].any(axis=0))[0]
    if extra.size:
        raise ValueError(
            f"coalition references sensor index {sensor_count + int(extra[0])} "
            f"but only {sensor_count} sensors exist"
        )
    return np.ascontiguousarray(bits[:, :sensor_count].T, dtype=bool)


def _low_table(bank: np.ndarray, c: int) -> np.ndarray:
    # The 2^c Gramians over sensors 0..c-1, indexed by bitmask, by the
    # highest-set-bit recursion W[2^i : 2^(i+1)] = W[:2^i] + G[i]: each entry
    # is its members summed in ascending index from the zero matrix.
    low = np.zeros((1 << c,) + bank.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(c):
            np.add(low[: 1 << i], bank[i], out=low[1 << i : 2 << i])
    return low


def coalition_gramians(bank: np.ndarray, masks) -> np.ndarray:
    """Stacked ``(k, n, n)`` Gramians of a batch of coalitions.

    ``masks`` holds one membership bitmask per coalition: a ``(k,)`` integer
    array (fewer than 64 sensors) or ``(k, w)`` uint64 words from
    ``pack_masks`` (any sensor count). Each Gramian is the sum of its
    members' bank entries in ascending sensor index, the same bits as adding
    them one at a time; the empty coalition yields the zero matrix, the
    well-defined no-sensor Gramian. The sums are entry by entry, so any
    ``(p, ...)`` per-sensor array sums the same way: a bank of full Gramians,
    or of the entries a metric reads, such as their ``(p, n)`` diagonals,
    which gives the ``(k, n)`` diagonals of the coalition Gramians.

    The sums start from a partial table over the lowest c sensors, with
    2^c <= k, from which each coalition takes its low members' sum; its
    higher members are then added in ascending index, so every entry gets
    the same additions in the same order. The working set is at most twice
    the output.
    """
    words = np.asarray(masks)
    members = _membership(words, bank.shape[0])
    p, k = members.shape
    c = min(p, max(k, 1).bit_length() - 1)
    low = words if words.ndim == 1 else words[:, 0]
    out = _low_table(bank, c)[low & ((1 << c) - 1)]
    entry = (1,) * (bank.ndim - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(c, p):
            np.add(out, bank[i], out=out, where=members[i].reshape(-1, *entry))
    return out


def full_gramian(bank: np.ndarray) -> np.ndarray:
    """The full-coalition Gramian: the bank summed in ascending sensor index,
    the bits of ``coalition_gramians`` for the all-members mask."""
    out = np.zeros(bank.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for gram in bank:
            out += gram
    return out


def is_observable(gramians: np.ndarray, tol: float | None = None):
    """Whether each Gramian is positive definite, i.e. every state direction
    contributes output energy.

    Takes one ``(n, n)`` Gramian (returns a bool) or a ``(k, n, n)`` stack
    (returns a boolean array). ``tol`` is the strict lower bound the minimum
    eigenvalue must exceed, a positive finite number; by default
    1e-9 * max(1, largest eigenvalue). Gramians with non-finite entries or a
    minimum eigenvalue beyond the PSD tolerance are rejected with a
    ``ValueError``, as everywhere else.
    """
    if tol is not None and not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    verdict = _observable(_eigenvalues(gramians), tol)
    return bool(verdict) if verdict.ndim == 0 else verdict


def _observable(eigs: np.ndarray, tol: float | None) -> np.ndarray:
    # is_observable's verdicts from ascending eigenvalues. Clamping a minimum
    # to 0 (see _eigenvalues) cannot change them, as tol is positive.
    if tol is None:
        tol = 1e-9 * np.maximum(1.0, eigs[..., -1])
    return eigs[..., 0] > tol
