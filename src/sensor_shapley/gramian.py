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
``(p, n, n)`` array, from one power chain of A^k) and ``metrics`` sums its
members for any batch of coalitions. The bank's h-sample loop creates no
array but the next power of A: each sample writes every sensor's c_i A^k
with one batched row product (``matmul``), all their outer products with one
``multiply`` and adds them to the bank with one ``add``, through buffers
made once per call. The outer-product buffer holds at most ``_CHUNK_BYTES``
of sensors; a larger bank takes one multiply and one add per group of
sensors that fits. Overflow is caught when the bank is built: a sensor whose
slot the power chain leaves non-finite (A^k overflows even where c_i A^k
does not) is rebuilt from its own row, and the model is refused, naming the
sensor, only if that overflows too. A Gramian is checked by the code that
reads its eigenvalues: the PSD rule (``_eigenvalues``) runs in the min-eig
metric, which also catches non-finite coalition sums, in ``is_observable``
and on the stack ``check`` prints, never on the bank alone. Symmetry holds
by construction: entries (i, j) and (j, i) are the same products added in
the same order, so are never checked or symmetrized.

The system is observable over the window iff the full-coalition Gramian is
positive definite, i.e. its minimum eigenvalue is strictly positive.
Summation order is fixed (ascending sensor index, ascending k); the last
bits of the matrix products still depend on the BLAS kernel.
"""

from __future__ import annotations

import numpy as np

from .model import LtiModel, _shown

__all__ = ["is_observable", "per_sensor_gramians"]

# Eigenvalues may dip this far below zero (relative to the largest one,
# floored absolutely) before a Gramian is rejected as non-PSD.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12

# The bank forms its outer products for at most this many bytes of sensors
# at a time, and ``metrics`` values coalitions in chunks of this many bytes
# of full n x n Gramians: neither's memory grows with p or 2^p.
_CHUNK_BYTES = 1 << 23


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
    itself to sensor i's slot. Per sample, one ``matmul`` of the ``(p, 1, n)``
    row stack by A^k writes every sensor's ``c_i @ A^k`` into a ``(p, 1, n)``
    buffer: a gufunc over the same ``(1, n) @ (n, n)`` cores, so each block
    has the bits of its own product. One ``multiply`` of the blocks'
    transposed ``(p, n, 1)`` view by the ``(p, 1, n)`` blocks writes all the
    outer products into a ``(p, n, n)`` buffer, and one ``add`` puts them on
    the bank in place. If the outer products of all p sensors pass
    ``_CHUNK_BYTES``, the buffer holds a group of sensors that fits and
    each sample makes one multiply and one add per group. The buffers and
    the group views are made once per call, so a sample creates no array
    but the next power of A. Every entry is one product ``c_j * c_k`` added
    in ascending k from +0.0: the bits of ``slot += block.T * block``.

    A slot the chain leaves non-finite is rebuilt by propagating c_i alone;
    if that overflows too within the window, the model is rejected with a
    ``ValueError`` naming the sensor and the horizon. No member is
    eigen-solved here; see the module docstring.
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
