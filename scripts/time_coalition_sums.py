#!/usr/bin/env python3
"""Time the coalition sums of the permutation sampler's prefix batches.

For each sensor count p in 25, 40, 70 and 100, a seeded random model with
n = 6 states and h = 10 samples (the sizes of perfbench's ``sampled-wide``
workload) gets 100 seeded sensor orderings. Their distinct prefix coalitions
are packed into bitmask words, as ``shapley_sampled`` values them. The script
prints, per p, the median wall time of the entry-major sums of whole bank
entries (``metrics._coalition_sums``, the sums alone) and of
``coalition_values(bank, MIN_EIGENVALUE, masks)`` (sums of the lower
triangles plus eigen-solves), the tracemalloc peak of one ``values`` call,
and the sha256 of the values, so that two checkouts can be compared for
speed, working memory and identical bits.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_coalition_sums.py
"""

import hashlib
import statistics
import time
import tracemalloc

import numpy as np

from sensor_shapley import (
    LtiModel,
    Sensor,
    ValueFunctionKind,
    coalition_values,
    pack_masks,
    metrics,
    per_sensor_gramians,
)

SENSOR_COUNTS = (25, 40, 70, 100)
STATES, HORIZON, PERMUTATIONS, REPEATS = 6, 10, 100, 15


def prefix_batch(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The bank of a seeded stable model, seeded (N, p) orderings and their
    # distinct prefix coalitions, as (k, w) uint64 words.
    rng = np.random.default_rng(p)
    a = rng.standard_normal((STATES, STATES))
    a /= 1.1 * np.max(np.abs(np.linalg.eigvals(a)))
    sensors = tuple(
        Sensor(f"s{i}", rng.standard_normal(STATES)) for i in range(p)
    )
    bank = per_sensor_gramians(LtiModel(a, sensors, HORIZON))
    orderings = rng.permuted(np.tile(np.arange(p), (PERMUTATIONS, 1)), axis=1)
    singles = pack_masks(np.eye(p, dtype=bool))
    prefixes = np.bitwise_or.accumulate(singles[orderings], axis=1)
    masks = np.unique(prefixes.reshape(-1, singles.shape[1]), axis=0)
    return bank, orderings, masks


def median_ms(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def timed_batch(p: int):
    # The batch size, the median sums and values times, the tracemalloc peak
    # of one values call and the sha256 of the values, at p sensors.
    kind = ValueFunctionKind.MIN_EIGENVALUE
    bank, _, masks = prefix_batch(p)
    entries = bank.reshape(p, -1)
    sums_ms = median_ms(lambda: metrics._coalition_sums(entries, masks))
    values_ms = median_ms(lambda: coalition_values(bank, kind, masks))
    tracemalloc.start()
    values = coalition_values(bank, kind, masks)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    return len(masks), sums_ms, values_ms, peak_mb, digest


def main() -> None:
    for p in SENSOR_COUNTS:
        count, sums_ms, values_ms, peak_mb, digest = timed_batch(p)
        print(
            f"p={p:<4d} masks={count:<6d} sums {sums_ms:7.2f} ms  "
            f"values {values_ms:7.2f} ms  peak {peak_mb:5.2f} MB  "
            f"sha256 {digest}"
        )


if __name__ == "__main__":
    main()
