"""Observability matrices and Gramians for sensor coalitions.

For a coalition S with stacked measurement rows C_S, the observability
matrix over K+1 samples is the row-stack of C_S A^k for k = 0..K, and the
observability Gramian is

    W_S = sum_k (A^T)^k C_S^T C_S A^k = O_S^T O_S.

W_S is symmetric positive semidefinite and additive over sensors:
W_S = sum of the single-sensor Gramians of the members of S. That additivity
is what makes coalition values cheap: the bank of per-sensor Gramians is
built once (``per_sensor_gramians``, a ``(p, n, n)`` array) and the Gramians
of any batch of coalitions, given as membership bitmasks, are stacked n x n
sums of bank members (``coalition_gramians``). ``gramian_direct`` keeps the
definition-level construction around as the independent cross-check.

The system is observable over the window iff the full-coalition Gramian is
positive definite, i.e. its minimum eigenvalue is strictly positive.

Summation order is fixed (ascending sensor index, ascending k), so results
are deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Coalition, LtiModel, require_valid

__all__ = [
    "Gramian",
    "coalition_gramians",
    "gramian_direct",
    "is_observable",
    "observability_matrix",
    "pack_masks",
    "per_sensor_gramians",
    "symmetric_eigenvalues",
]

# Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12
# Eigenvalues may dip this far below zero (relative to the largest one,
# floored absolutely) before a Gramian is rejected as non-PSD.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12


def _check_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(
            f"{what} must be a non-empty square matrix, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    scale = float(np.max(np.abs(m)))
    asym = float(np.max(np.abs(m - m.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{what} is not symmetric within tolerance "
            f"(max asymmetry {asym:.3e}, max entry {scale:.3e})"
        )
    return m


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, in ascending order.

    The input must be symmetric within ``SYMMETRY_RTOL`` relative to its
    largest entry; it is symmetrized as (M + M^T)/2 before the solve so the
    result is deterministic for a given input.
    """
    m = _check_symmetric(m, "matrix")
    return np.linalg.eigvalsh((m + m.T) / 2.0)


@dataclass(frozen=True, eq=False)
class Gramian:
    """Symmetric PSD observability Gramian of one sensor coalition.

    Construction symmetrizes the entries as (M + M^T)/2 to absorb
    floating-point drift, then rejects inputs that are asymmetric beyond
    tolerance or have an eigenvalue below -max(PSD_RTOL * lambda_max,
    PSD_FLOOR). These are the checks every Gramian entering the bank passes.
    """

    entries: np.ndarray
    coalition: Coalition

    def __post_init__(self):
        m = _check_symmetric(self.entries, "Gramian")
        sym = (m + m.T) / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        eigs = np.linalg.eigvalsh(sym)
        tol = max(PSD_RTOL * float(eigs[-1]), PSD_FLOOR)
        if float(eigs[0]) < -tol:
            raise ValueError(
                f"Gramian for coalition {self.coalition} is not positive "
                f"semidefinite (minimum eigenvalue {eigs[0]:.6e})"
            )


def _coalition_rows(model: LtiModel, coalition: Coalition) -> np.ndarray:
    if coalition.members and coalition.members[-1] >= model.sensor_count:
        raise ValueError(
            f"coalition {coalition} references sensor index "
            f"{coalition.members[-1]} but only {model.sensor_count} sensors exist"
        )
    if not coalition.members:
        raise ValueError("empty coalition has no observability matrix")
    return np.vstack([model.sensors[i].row for i in coalition])


def _blocks(model: LtiModel, coalition: Coalition):
    # C_S A^k for k = 0..K. Powers of the state matrix are accumulated by
    # repeated multiplication, which stays well defined for defective
    # (non-diagonalizable) dynamics.
    rows = _coalition_rows(model, coalition)
    power = np.eye(model.state_dimension)
    for _ in range(model.horizon_samples):
        yield rows @ power
        power = power @ model.state_matrix


def observability_matrix(model: LtiModel, coalition: Coalition) -> np.ndarray:
    """The stacked blocks C_S A^k for k = 0..K of a non-empty coalition, as a
    read-only array with (K+1) * |S| rows."""
    require_valid(model)
    stacked = np.vstack(list(_blocks(model, coalition)))
    stacked.setflags(write=False)
    return stacked


def _direct_sum(model: LtiModel, coalition: Coalition) -> np.ndarray:
    # sum_k (C_S A^k)^T (C_S A^k) for an already validated model. Overflow is
    # left to the callers' finiteness checks instead of leaking warnings.
    n = model.state_dimension
    acc = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(model, coalition):
            acc += block.T @ block
    return acc


def gramian_direct(model: LtiModel, coalition: Coalition) -> Gramian:
    """Build a coalition Gramian straight from its definition.

    Accumulates sum_k (C_S A^k)^T (C_S A^k) over the sample window. This is
    the reference construction; production paths sum the per-sensor bank
    instead (see ``coalition_gramians``).
    """
    require_valid(model)
    return Gramian(_direct_sum(model, coalition), coalition)


def per_sensor_gramians(model: LtiModel) -> np.ndarray:
    """The bank: all p single-sensor Gramians, built once, as a read-only
    ``(p, n, n)`` array index-aligned with the model's sensors.

    Each member passes the :class:`Gramian` checks (finite, symmetric, PSD).
    Dynamics that overflow within the window are rejected with a
    ``ValueError`` naming the sensor and the horizon.
    """
    require_valid(model)
    n, h = model.state_dimension, model.horizon_samples
    bank = np.empty((model.sensor_count, n, n))
    for i, sensor in enumerate(model.sensors):
        acc = _direct_sum(model, Coalition((i,)))
        if not np.all(np.isfinite(acc)):
            raise ValueError(
                f"Gramian of sensor {sensor.name!r} overflows to non-finite "
                f"values over {h} samples: the dynamics grow too fast for "
                f"this horizon"
            )
        bank[i] = Gramian(acc, Coalition((i,))).entries
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


def is_observable(gramians: np.ndarray, tol: float | None = None):
    """Whether each Gramian is positive definite, i.e. every state direction
    contributes output energy.

    Takes one ``(n, n)`` Gramian (returns a bool) or a ``(k, n, n)`` stack
    (returns a boolean array). ``tol`` is the strict lower bound the minimum
    eigenvalue must exceed; by default 1e-9 * max(1, largest eigenvalue).
    """
    if tol is not None and tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    eigs = np.linalg.eigvalsh(gramians)
    if tol is None:
        tol = 1e-9 * np.maximum(1.0, eigs[..., -1])
    verdict = eigs[..., 0] > tol
    return bool(verdict) if verdict.ndim == 0 else verdict
