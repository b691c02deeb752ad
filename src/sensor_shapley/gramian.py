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
``(p, n, n)`` array) and the Gramians of any batch of coalitions are sums of
bank members (``coalition_gramians``). The bank propagates A^k once and
forms every sensor's block c_i A^k from it. Overflow is caught when the bank
is built, naming the sensor. The PSD rule (``_eigenvalues``) runs on the
bank, in the min-eig metric, which also catches non-finite coalition sums,
in ``is_observable`` and on the stack ``check`` prints. Symmetry holds by
construction: entries (i, j) and (j, i) are the same products added in the
same order, so they are never checked or symmetrized.

Coalition sums are entry-major: ``(e, k)``, row r holding entry r of all k
sums. A batch of k starts from a partial table over the lowest c sensors,
2^(c-1) <= k < 2^c; each higher sensor is then one contiguous pass that adds
its entries, or +0.0 for coalitions without it, chosen by a bitwise AND of
their int64 view with an all-ones or all-zeros word from the mask words.
Sums start from +0.0, so are never -0.0, and x + 0.0 keeps every other x,
inf and NaN too: the bits of adding members one at a time (a 0/1 multiply
would not be exact: inf * 0 is NaN). The working set is at most three times
the output.

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


def _mask_words(masks, sensor_count: int) -> np.ndarray:
    # (w, k) uint64 words, row j holding bits 64j..64j+63 of every
    # coalition, from bitmasks: a (k,) integer array, or (k, w) uint64 words
    # with sensor i at bit i % 64 of word i // 64.
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


def _low_table(entries: np.ndarray, c: int) -> np.ndarray:
    # The (e, 2^c) sums of (p, e) per-sensor entries over sensors 0..c-1,
    # column m the coalition of bitmask m, by the highest-set-bit recursion
    # W[:, 2^i : 2^(i+1)] = W[:, :2^i] + G[i]: each column is its members
    # summed in ascending index from +0.0.
    low = np.zeros((entries.shape[1], 1 << c))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(c):
            np.add(low[:, : 1 << i], entries[i, :, None], out=low[:, 1 << i : 2 << i])
    return low


def _coalition_sums(entries: np.ndarray, masks) -> np.ndarray:
    # The entry-major (e, k) sums of (p, e) per-sensor entries over a batch
    # of bitmasks (see the module docstring).
    entries = np.ascontiguousarray(entries, dtype=np.float64)
    p = entries.shape[0]
    words = _mask_words(masks, p)
    k = words.shape[1]
    c = min(p, k.bit_length())
    sums = np.take(_low_table(entries, c), words[0] & ((1 << c) - 1), axis=1)
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
    return sums


def coalition_gramians(bank: np.ndarray, masks) -> np.ndarray:
    """Stacked ``(k, n, n)`` Gramians of a batch of coalitions, a fresh
    array the caller owns.

    ``masks`` holds one membership bitmask per coalition: a ``(k,)`` integer
    array (fewer than 64 sensors) or ``(k, w)`` uint64 words from
    ``pack_masks`` (any sensor count). Each Gramian is the sum of its
    members' bank entries in ascending sensor index, the same bits as adding
    them one at a time from +0.0; the empty coalition yields the zero
    matrix, the well-defined no-sensor Gramian. The sums are entry by entry,
    so any ``(p, ...)`` per-sensor array sums the same way: a bank of full
    Gramians, or of the entries a metric reads, such as their ``(p, n)``
    diagonals, which gives the ``(k, n)`` diagonals of the coalition
    Gramians.
    """
    sums = _coalition_sums(bank.reshape(len(bank), -1), masks)
    return np.ascontiguousarray(sums.T).reshape((-1,) + bank.shape[1:])


def full_gramian(bank: np.ndarray) -> np.ndarray:
    """The full-coalition Gramian: the bank summed in ascending sensor index,
    the bits of ``coalition_gramians`` for the all-members mask, as a fresh
    array the caller owns."""
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
