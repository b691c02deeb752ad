#!/usr/bin/env python3
"""Time the per-sensor Gramian bank at perfbench's shapes and two wider ones.

For each shape (p sensors, n states, h samples), a seeded random model with
an orthogonal state matrix (marginally stable, so nothing decays or
overflows over long windows) and p random sensor rows gets its bank built by
``per_sensor_gramians``. The shapes are those of perfbench's ``exact-table``
(10, 6, 10), ``sampled-wide`` (40, 6, 10) and ``long-horizon`` (8, 24, 1000)
workloads, plus two that perfbench does not reach: (40, 24, 1000), and (600,
64, 2), whose 18.75 MiB bank is above the outer-product byte budget, so its
sensors go in groups. The script prints, per shape, the median wall time of
the bank, the tracemalloc peak of a second, traced call (tracemalloc slows
every allocation) and the sha256 of the bank's bytes, so that two checkouts
can be compared for speed, working memory and identical bits.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_bank.py

BLAS runs on one thread, as in perfbench, unless the environment says
otherwise.
"""

import hashlib
import os
import statistics
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sensor_shapley import LtiModel, Sensor, per_sensor_gramians

SHAPES = (
    (10, 6, 10),
    (40, 6, 10),
    (8, 24, 1000),
    (40, 24, 1000),
    (600, 64, 2),
)
REPEATS = 15


def seeded_model(p: int, n: int, h: int) -> LtiModel:
    # An orthogonal state matrix and p random sensor rows, seeded by the shape.
    rng = np.random.default_rng((p, n, h))
    a = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sensors = tuple(Sensor(f"s{i}", rng.standard_normal(n)) for i in range(p))
    return LtiModel(a, sensors, h)


def timed_bank(model: LtiModel):
    # The median bank time in ms, the tracemalloc peak of one more call in
    # MB and the sha256 of the bank.
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        per_sensor_gramians(model)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    bank = per_sensor_gramians(model)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    digest = hashlib.sha256(bank.tobytes()).hexdigest()
    return 1e3 * statistics.median(times), peak_mb, digest


def main() -> None:
    for p, n, h in SHAPES:
        bank_ms, peak_mb, digest = timed_bank(seeded_model(p, n, h))
        print(
            f"p={p:<3d} n={n:<3d} h={h:<5d} bank {bank_ms:8.2f} ms  "
            f"peak {peak_mb:6.3f} MB  sha256 {digest}"
        )


if __name__ == "__main__":
    main()
