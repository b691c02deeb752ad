"""Observability matrices and Gramians for sensor coalitions.

A coalition S is a membership bitmask: bit i set means sensor i is a member.
For stacked measurement rows C_S, the observability matrix over K+1 samples
is the row-stack of C_S A^k for k = 0..K, and the observability Gramian is

    W_S = sum_k (A^T)^k C_S^T C_S A^k = O_S^T O_S.

W_S is symmetric positive semidefinite and additive over sensors: W_S = sum
of the single-sensor Gramians of the members of S. That additivity is what
makes coalition values cheap: the bank of per-sensor Gramians is built once
(``per_sensor_gramians``, a ``(p, n, n)`` array) and the Gramians of any
batch of coalitions are stacked n x n sums of bank members
(``coalition_gramians``). The bank propagates A^k once and forms every
sensor's block c_i A^k from it; ``gramian_direct`` keeps the definition-level
construction, with its own power chain, as the independent cross-check. Every
Gramian is a plain read-only array; the bank and ``gramian_direct`` pass the
same checks (finite, symmetric, PSD) on the way out.

The system is observable over the window iff the full-coalition Gramian is
positive definite, i.e. its minimum eigenvalue is strictly positive.

Summation order is fixed (ascending sensor index, ascending k), so results
are deterministic for a given input.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .model import LtiModel, require_valid

__all__ = [
    "coalition_gramians",
    "full_gramian",
    "gramian_direct",
    "is_observable",
    "observability_matrix",
    "pack_masks",
    "per_sensor_gramians",
]

# Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12
# Eigenvalues may dip this far below zero (relative to the largest one,
# floored absolutely) before a Gramian is rejected as non-PSD.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _label(mask) -> str:
    return "{" + ", ".join(map(str, _members(int(mask)))) + "}"


def _checked_gramians(stack: np.ndarray, masks: list[int]) -> np.ndarray:
    # The checks every Gramian of the bank and of gramian_direct passes:
    # finite, symmetric within SYMMETRY_RTOL of its largest entry, and PSD
    # within PSD_RTOL / PSD_FLOOR. Returns the (k, n, n) stack symmetrized as
    # (M + M^T)/2 and read-only; masks[j] names member j in the PSD error.
    if not np.all(np.isfinite(stack)):
        raise ValueError("Gramian contains non-finite entries")
    flipped = np.swapaxes(stack, -1, -2)
    scale = np.max(np.abs(stack), axis=(1, 2))
    asym = np.max(np.abs(stack - flipped), axis=(1, 2))
    bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"Gramian is not symmetric within tolerance "
            f"(max asymmetry {asym[j]:.3e}, max entry {scale[j]:.3e})"
        )
    sym = (stack + flipped) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    tol = np.maximum(PSD_RTOL * eigs[:, -1], PSD_FLOOR)
    bad = np.flatnonzero(eigs[:, 0] < -tol)
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"Gramian for coalition {_label(masks[j])} is not positive "
            f"semidefinite (minimum eigenvalue {eigs[j, 0]:.6e})"
        )
    sym.setflags(write=False)
    return sym


def _coalition_rows(model: LtiModel, mask: int) -> np.ndarray:
    if not isinstance(mask, Integral) or isinstance(mask, bool):
        raise ValueError(f"coalition bitmask must be an integer, got {mask!r}")
    mask = int(mask)
    if mask < 0:
        raise ValueError(f"coalition bitmask must be non-negative, got {mask}")
    if mask >> model.sensor_count:
        raise ValueError(
            f"coalition {_label(mask)} references sensor index "
            f"{mask.bit_length() - 1} but only {model.sensor_count} sensors exist"
        )
    if not mask:
        raise ValueError("empty coalition has no observability matrix")
    return np.vstack([model.sensors[i].row for i in _members(mask)])


def _blocks(model: LtiModel, mask: int):
    # C_S A^k for k = 0..K. Powers of the state matrix are accumulated by
    # repeated multiplication, which stays well defined for defective
    # (non-diagonalizable) dynamics.
    rows = _coalition_rows(model, mask)
    power = np.eye(model.state_dimension)
    for _ in range(model.horizon_samples):
        yield rows @ power
        power = power @ model.state_matrix


def observability_matrix(model: LtiModel, mask: int) -> np.ndarray:
    """The stacked blocks C_S A^k for k = 0..K of the non-empty coalition
    with membership bitmask ``mask``, as a read-only array with
    (K+1) * |S| rows."""
    require_valid(model)
    stacked = np.vstack(list(_blocks(model, mask)))
    stacked.setflags(write=False)
    return stacked


def _direct_sum(model: LtiModel, mask: int) -> np.ndarray:
    # sum_k (C_S A^k)^T (C_S A^k) for an already validated model. Overflow is
    # left to the callers' finiteness checks instead of leaking warnings.
    n = model.state_dimension
    acc = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(model, mask):
            acc += block.T @ block
    return acc


def gramian_direct(model: LtiModel, mask: int) -> np.ndarray:
    """Build the Gramian of the coalition with membership bitmask ``mask``
    straight from its definition, as a read-only ``(n, n)`` array.

    Accumulates sum_k (C_S A^k)^T (C_S A^k) over the sample window. This is
    the reference construction; production paths sum the per-sensor bank
    instead (see ``coalition_gramians``).
    """
    require_valid(model)
    return _checked_gramians(_direct_sum(model, mask)[None], [mask])[0]


def per_sensor_gramians(model: LtiModel) -> np.ndarray:
    """The bank: all p single-sensor Gramians, built once, as a read-only
    ``(p, n, n)`` array index-aligned with the model's sensors.

    Each step of one power chain adds the outer product of c_i A^k with
    itself to sensor i's slot, the bits of the singleton's ``gramian_direct``.
    The members pass the checks of ``gramian_direct`` (finite, symmetric,
    PSD) as one stack. Dynamics that overflow within the window are rejected
    with a ``ValueError`` naming the sensor and the horizon.
    """
    require_valid(model)
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
            f"Gramian of sensor {model.sensors[bad[0]].name!r} overflows to "
            f"non-finite values over {h} samples: the dynamics grow too fast "
            f"for this horizon"
        )
    return _checked_gramians(bank, [1 << i for i in range(len(bank))])


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
    # (k, p) booleans from bitmasks: a (k,) integer array, or (k, w) uint64
    # words with sensor i at bit i % 64 of word i // 64.
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
    return bits[:, :sensor_count].astype(bool)


def coalition_gramians(bank: np.ndarray, masks) -> np.ndarray:
    """Stacked ``(k, n, n)`` Gramians of a batch of coalitions.

    ``masks`` holds one membership bitmask per coalition: a ``(k,)`` integer
    array (fewer than 64 sensors) or ``(k, w)`` uint64 words from
    ``pack_masks`` (any sensor count). Each Gramian is the sum of its
    members' bank entries in ascending sensor index, the same bits as adding
    them one at a time; the empty coalition yields the zero matrix, the
    well-defined no-sensor Gramian.
    """
    members = _membership(masks, bank.shape[0])
    out = np.zeros((members.shape[0],) + bank.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, gram in enumerate(bank):
            out[members[:, i]] += gram
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
    1e-9 * max(1, largest eigenvalue).
    """
    if tol is not None and not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    eigs = np.linalg.eigvalsh(gramians)
    if tol is None:
        tol = 1e-9 * np.maximum(1.0, eigs[..., -1])
    verdict = eigs[..., 0] > tol
    return bool(verdict) if verdict.ndim == 0 else verdict
