"""Reference constructions that only the tests use."""

import numpy as np


def gramian_direct(model, mask):
    """The Gramian of the coalition with membership bitmask ``mask``, straight
    from its definition: sum_k (C_S A^k)^T (C_S A^k) from zeros, with its own
    power chain. For a single sensor these are the bank's bits.

    Overflow is left to the caller's finiteness checks instead of leaking
    warnings; the mask is not validated.
    """
    rows = np.array([s.row for i, s in enumerate(model.sensors) if mask >> i & 1])
    n = model.state_dimension
    acc = np.zeros((n, n))
    power = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(model.horizon_samples):
            block = rows @ power
            acc += block.T @ block
            power = power @ model.state_matrix
    return acc


def gramian_propagated(model, i):
    """Sensor i's Gramian from its own row, propagated a sample at a time
    (block <- block @ A) with no power of A: sum_k (c_i A^k)^T (c_i A^k)
    from zeros. Overflow is left to the caller, as in ``gramian_direct``.
    """
    block = model.sensors[i].row[None, :]
    acc = np.zeros((model.state_dimension,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(model.horizon_samples):
            acc += block.T @ block
            block = block @ model.state_matrix
    return acc
