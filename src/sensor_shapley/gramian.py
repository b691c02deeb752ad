"""Observability Gramians for sensor coalitions.

The Gramian of a sensor coalition S over the K+1 samples of the window is

    W_S = sum_k (A^T)^k C_S^T C_S A^k = O_S^T O_S,

where O_S stacks C_S A^k for k = 0..K. W_S is symmetric positive semidefinite
and the sum of its members' single-sensor Gramians, so the package builds only
those (the bank) and ``metrics`` sums them. The system is observable over the
window iff the full-coalition Gramian is positive definite.

The bank adds each sensor's products c_j * c_k in ascending k onto slots that
start at +0.0. A sum from +0.0 never rounds to -0.0, so these keep its bits:

* skipping the products of outputs c_i A^k outside the coordinates the row
  reaches (see _reach), which are +-0.0 while the powers of A are finite;
* einsum's 0.0 + a * b, which differs from a * b only where that is -0.0;
* previous.dot(A, out=...), the dgemm of previous @ A on the same operands
  without a fresh array or np.dot's dispatch (at n = 1, a scalar product);
* one np.add.reduce over a block's k samples, once the first holds the slots
  plus its own products: the same additions in ascending k, one call for k.
  It runs only where k >= 8, as the budget then caps a sample's products at
  8192 numbers, so its one extra pass costs no more than the 7 or more calls
  it saves; and only over more than one number per sample, as numpy sums a
  reduction over contiguous numbers pairwise (Higham 2002, chapter 4),
  which rounds otherwise.

Once a power of A overflows, inf * 0 spreads NaN into outputs that should be
zero, so a sensor is rebuilt from its own row iff its slots end the window
non-finite. A non-finite output in some product makes its diagonal product,
and so that slot for good, non-finite: slots over all n states need no output
screen. An unreached one is in no product, so it sets the sensor's slots to NaN.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import LtiModel, _shown

__all__ = ["is_observable", "per_sensor_gramians"]

# A minimum eigenvalue more than max(PSD_RTOL * largest, PSD_FLOOR) below
# zero rejects a Gramian as not PSD; one within that is clamped to 0.
PSD_RTOL = 1e-9
PSD_FLOOR = 1e-12

# The byte budget of a block of samples (see per_sensor_gramians): the bank's
# memory grows with neither p nor the window. It is cache-sized, to keep the
# buffers its fewer, longer calls write in L2, and adds its size to every peak.
_BANK_BYTES = 1 << 19
# The fewest samples a block sums by one reduction (see the module docstring).
_REDUCED_SAMPLES = 8


def _require_finite(values: np.ndarray) -> None:
    # The one check that Gramian entries are finite. Any NaN or inf makes the
    # sum non-finite; only then is a mask built, as finite ones may overflow it.
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not np.isfinite(total) and not np.isfinite(values).all():
        raise ValueError("Gramian contains non-finite entries")


def _eigenvalues(gramians: np.ndarray) -> np.ndarray:
    # The ascending eigenvalues of an (n, n) Gramian or each of a (k, n, n)
    # stack, after the checks on Gramians (_require_finite, the PSD
    # tolerance). The min-eig metric, is_observable and check read them here.
    _require_finite(gramians)
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
    # l -> j for A[l, j] != 0), then unreached ones, up to the largest reach
    # s. The closure squares A's pattern plus the identity, clipped to 1,
    # until it stops growing: about log2(n) matmuls of small exact integers.
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

    Entry (j, k) adds the window's products ``c_j * c_k`` in ascending k from
    +0.0, the bits of ``slot += block.T * block`` whose last bits depend on
    the BLAS kernel, so it equals entry (k, j); it is +0.0 outside the
    coordinates the row reaches. A sensor whose slots end the window
    non-finite is rebuilt by propagating c_i alone; if that overflows too, a
    ``ValueError`` names the sensor and the horizon. No slot is eigen-solved.

    A block of samples is worked at a time, as many as fit ``_BANK_BYTES``
    with a power of A, the p outputs, their reached part (where some are
    unreached) and one group of sensors' outer products per sample.
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
    if size == n:  # some sensor reaches all n states, so every sensor takes all n
        slots, reached = bank, outputs[:, :, 0]
    else:
        slots, reached = np.zeros((p, size, size)), np.empty((samples, p, size))
        flat = index * n + cols
    chain, state = powers[:, 0], model.state_matrix
    chain[0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, h, samples):
            k = min(samples, h - start)
            if start:
                chain[-1].dot(state, out=chain[0])
            for before, after in itertools.pairwise(chain[:k]):
                before.dot(state, out=after)
            # a gufunc over (1, n) @ (n, n) cores: each sensor's own bits
            np.matmul(rows, powers[:k], out=outputs[:k])
            if slots is not bank:
                # screened by their sum, without a mask's memory; where finite
                # outputs overflow it, the mask marks no sensor
                block = outputs[:k].reshape(k, p * n)
                if not np.isfinite(block.sum()):
                    slots[~np.isfinite(outputs[:k]).all(axis=(0, 2, 3))] = np.nan
                # np.take's default mode would copy through a fresh buffer
                np.take(block, flat, axis=1, out=reached[:k], mode="clip")
            for i in range(0, p, group):
                seen = reached[:k, i : i + group]
                products = outers[:k, : seen.shape[1]]
                np.einsum("tpi,tpj->tpij", seen, seen, out=products)
                part = slots[i : i + group]
                if k >= _REDUCED_SAMPLES and part.size > 1:
                    np.add(part, products[0], out=products[0])
                    np.add.reduce(products, axis=0, out=part)
                else:
                    for outer in products:
                        np.add(part, outer, out=part)
        # the sum screens the slots, so a mask is built only if one is not finite
        finite = np.isfinite(slots.sum())
        stale = [] if finite else np.flatnonzero(~np.isfinite(slots).all(axis=(1, 2)))
        if slots is not bank:
            bank[index[:, :, None], cols[:, :, None], cols[:, None, :]] = slots
        for i in stale:
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
