"""Observability Gramians for sensor coalitions.

The Gramian of a sensor coalition S over the K+1 samples of the window is

    W_S = sum_k (A^T)^k C_S^T C_S A^k = O_S^T O_S,

where O_S stacks C_S A^k for k = 0..K. W_S is symmetric positive semidefinite
and the sum of its members' single-sensor Gramians, so the package builds only
those (the bank) and ``metrics`` sums them. The system is observable over the
window iff the full-coalition Gramian is positive definite.
"""

from __future__ import annotations

import numpy as np

from .model import LtiModel, _shown

__all__ = ["is_observable", "per_sensor_gramians"]

# A minimum eigenvalue more than max(PSD_RTOL * largest, PSD_FLOOR) below
# zero rejects a Gramian as not PSD; one within that is clamped to 0.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12

# The byte budget of the bank's outer-product buffer and of a chunk of
# coalition Gramians in ``metrics``: neither's memory grows with p or 2^p.
_CHUNK_BYTES = 1 << 23


def _eigenvalues(gramians: np.ndarray) -> np.ndarray:
    # The ascending eigenvalues of each Gramian of an (n, n) matrix or
    # (k, n, n) stack, after the one check on Gramians: finite entries and
    # the PSD tolerance. The min-eig metric, is_observable and check read
    # eigenvalues only through here.
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
    """The bank: all p single-sensor Gramians, as a read-only ``(p, n, n)``
    array index-aligned with the model's sensors.

    Every entry is one product ``c_j * c_k`` added in ascending k from +0.0,
    the bits of ``slot += block.T * block``; the last bits of the products
    depend on the BLAS kernel. A slot the power chain leaves non-finite is
    rebuilt by propagating c_i alone; if that overflows too within the
    window, a ``ValueError`` names the sensor and the horizon. No slot is
    eigen-solved.
    """
    p, n, h = model.sensor_count, model.state_dimension, model.horizon_samples
    bank = np.zeros((p, n, n))
    rows = np.stack([sensor.row for sensor in model.sensors])[:, None, :]
    blocks = np.empty_like(rows)
    group = min(p, max(1, _CHUNK_BYTES // (8 * n * n)))
    outers = np.empty((group, n, n))
    columns = blocks.transpose(0, 2, 1)
    groups = [
        (
            columns[i : i + group],
            blocks[i : i + group],
            bank[i : i + group],
            outers[: min(group, p - i)],
        )
        for i in range(0, p, group)
    ]
    # Per sample, one matmul writes every sensor's c_i A^k (a gufunc over the
    # same (1, n) @ (n, n) cores, so each block has its own product's bits),
    # then per group of sensors whose outer products fit _CHUNK_BYTES one
    # multiply writes them and one add puts them on the bank. The buffers and
    # views are made once, so a sample creates no array but the next power
    # of A. Entries (i, j) and (j, i) are the same products added in the same
    # order, so the bank is symmetric without a check.
    power = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(h):
            np.matmul(rows, power, out=blocks)
            for column, block, slots, outer in groups:
                np.multiply(column, block, out=outer)
                np.add(slots, outer, out=slots)
            power = power @ model.state_matrix
        # Once a power of A overflows, inf * 0 spreads NaN into every slot,
        # also those of sensors blind to the growing mode.
        for i in np.flatnonzero(~np.isfinite(bank).all(axis=(1, 2))):
            slot, block = np.zeros((n, n)), model.sensors[i].row[None, :]
            for _ in range(h):
                slot += block.T * block
                block = block @ model.state_matrix
            if not np.all(np.isfinite(slot)):
                raise ValueError(
                    f"Gramian of sensor {_shown(model.sensors[i].name)} overflows "
                    f"to non-finite values over {h} samples: its squared outputs "
                    f"pass the float range"
                )
            bank[i] = slot
    bank.setflags(write=False)
    return bank


def is_observable(gramians: np.ndarray, tol: float | None = None):
    """Whether each Gramian is positive definite, i.e. every state direction
    contributes output energy.

    Takes one ``(n, n)`` Gramian (returns a bool) or a ``(k, n, n)`` stack
    (returns a boolean array). ``tol`` is the strict lower bound the minimum
    eigenvalue must exceed, a positive finite number; by default
    1e-9 * max(1, largest eigenvalue). Raises ``ValueError`` for a Gramian
    with non-finite entries or a minimum eigenvalue below the PSD tolerance.
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
