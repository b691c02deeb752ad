"""Observability Gramians for sensor coalitions.

The Gramian of a sensor coalition S over the K+1 samples of the window is

    W_S = sum_k (A^T)^k C_S^T C_S A^k = O_S^T O_S,

where O_S stacks C_S A^k for k = 0..K. W_S is symmetric positive semidefinite
and the sum of its members' single-sensor Gramians, so the package builds only
those (the bank) and ``metrics`` sums them. The system is observable over the
window iff the full-coalition Gramian is positive definite.

Sensor i's outputs c_i A^k are exactly zero outside the state coordinates its
row reaches through A's nonzero pattern (the support of c_i, closed under
l -> j for A[l, j] != 0: the reachability of structural observability), so its
Gramian is zero outside those coordinates' rows and columns. The bank forms
each sensor's outer products over s coordinates, its reach padded to the
largest reach s, instead of all n, with the same bits: while the power chain
is finite, each skipped product is +-0.0 and would have left its +0.0 slot
unchanged. A sensor with any non-finite output, reached or not, is rebuilt
from its own row, as when its slot is non-finite.
"""

from __future__ import annotations

import numpy as np

from .model import LtiModel, _shown

__all__ = ["is_observable", "per_sensor_gramians"]

# A minimum eigenvalue more than max(PSD_RTOL * largest, PSD_FLOOR) below
# zero rejects a Gramian as not PSD; one within that is clamped to 0.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12

# The byte budget of what the bank holds for a block of samples (see
# per_sensor_gramians): its memory grows with neither p nor the window.
_BANK_BYTES = 1 << 19


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


def _reach(rows: np.ndarray, state_matrix: np.ndarray) -> np.ndarray:
    # A (p, s) array of state coordinates per sensor: first those its row
    # reaches through A's nonzero pattern (the support of c_i, closed under
    # l -> j for A[l, j] != 0), then coordinates it cannot reach, up to the
    # largest reach s. The closure squares A's pattern plus the identity,
    # clipped to 1, until it stops growing: about log2(n) matmuls of exact
    # small integers.
    closure = np.eye(len(state_matrix)) + (state_matrix != 0)
    while ((grown := np.minimum(closure @ closure, 1.0)) > closure).any():
        closure = grown
    reach = (rows != 0) @ closure > 0
    size = reach.sum(axis=1).max()
    if size == len(closure):  # all n for every sensor, without a (p, n) array
        return np.arange(size)[None]
    return np.argsort(~reach, axis=1, kind="stable")[:, :size]


def per_sensor_gramians(model: LtiModel) -> np.ndarray:
    """The bank: all p single-sensor Gramians, as a read-only ``(p, n, n)``
    array index-aligned with the model's sensors.

    Every entry is one product ``c_j * c_k`` added in ascending k from +0.0,
    the bits of ``slot += block.T * block``; the last bits of the products
    depend on the BLAS kernel. Entries outside the coordinates the sensor's
    row reaches through A's nonzero pattern are +0.0, as adding their +-0.0
    products would leave them while the powers of A are finite, so they are
    formed only where some sensor reaches all n. A sensor with any
    non-finite output or slot, as once the powers overflow, is rebuilt by
    propagating c_i alone; if that overflows too within the window, a
    ``ValueError`` names the sensor and the horizon. No slot is eigen-solved.

    The window is worked a block of samples at a time, as many as fit
    ``_BANK_BYTES`` holding, per sample, a power of A, the p outputs, their
    reached part (where some are unreached) and one group of sensors' outer
    products. Each power is written into the block by ``np.dot(previous, A,
    out=...)``: the dgemm of ``previous @ A`` on the same operands, so the
    same bits, without a fresh array per step; at n = 1 both are one
    product of two scalars.
    """
    p, n, h = model.sensor_count, model.state_dimension, model.horizon_samples
    bank = np.zeros((p, n, n))
    rows = np.stack([sensor.row for sensor in model.sensors])[:, None, :]
    cols, index = _reach(rows[:, 0], model.state_matrix), np.arange(p)[:, None]
    size = cols.shape[1]
    group = min(p, max(1, _BANK_BYTES // (8 * max(1, size * size))))
    held = n * n + p * n + (p * size if size < n else 0) + group * size * size
    samples = min(h, max(1, _BANK_BYTES // (8 * held)))
    powers = np.empty((samples, 1, n, n))
    outputs = np.empty((samples, p, 1, n))
    outers = np.empty((samples, group, size, size))
    # where some sensor reaches all n coordinates, every sensor takes all n
    if size == n:
        slots, reached = bank, outputs[:, :, 0]
    else:
        slots, reached = np.zeros((p, size, size)), np.empty((samples, p, size))
        flat = index * n + cols
    # A block of samples at a time: np.dot fills the block's powers of A in
    # place, the first from the previous block's last; one matmul writes
    # every sensor's c_i A^k for all of them (a gufunc over the same
    # (1, n) @ (n, n) cores, so each has its own product's bits); np.take
    # gathers each sensor's reached outputs into their buffer (its default
    # mode would copy through a fresh one); and per group of sensors one
    # einsum writes their outer products, which are added onto the slots in
    # ascending k. einsum writes each product as 0.0 + a * b, which
    # differs from a * b only where that is -0.0; a slot starts at +0.0, and
    # a sum from +0.0 never rounds to -0.0, so adding either zero leaves the
    # same bits, as does skipping the +-0.0 products of unreached outputs.
    # Those turn non-finite only with the chain, so the full outputs are
    # checked (by their min and max, without a mask's memory), and a sensor
    # with any non-finite output gets a NaN bank entry outside its reach.
    # Fewer, longer calls are the gain, and a cache-sized budget keeps the
    # buffers they write in L2; a larger one would also add its size to
    # every bank's peak. Entries (i, j) and (j, i) are the same products
    # added in the same order, so the bank is symmetric without a check.
    powers[0, 0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, h, samples):
            k = min(samples, h - start)
            if start:
                np.dot(powers[-1, 0], model.state_matrix, out=powers[0, 0])
            for t in range(1, k):
                np.dot(powers[t - 1, 0], model.state_matrix, out=powers[t, 0])
            np.matmul(rows, powers[:k], out=outputs[:k])
            if slots is not bank:
                block = outputs[:k].reshape(k, p * n)
                if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                    bank[~np.isfinite(outputs[:k]).all(axis=(0, 2, 3))] = np.nan
                np.take(block, flat, axis=1, out=reached[:k], mode="clip")
            for i in range(0, p, group):
                seen = reached[:k, i : i + group]
                products = outers[:k, : seen.shape[1]]
                np.einsum("tpi,tpj->tpij", seen, seen, out=products)
                part = slots[i : i + group]
                for outer in products:
                    np.add(part, outer, out=part)
        if slots is not bank:
            bank[index[:, :, None], cols[:, :, None], cols[:, None, :]] = slots
        # Once a power of A overflows, inf * 0 spreads NaN into every
        # sensor's outputs, also those of sensors blind to the growing mode.
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
