#!/usr/bin/env python3
"""Time the exact attribution path at large sensor counts, one size per process.

For the trace at p = 16, 20, 22 and 24 and the minimum eigenvalue at p = 16,
20 and 22, a seeded random model with n = 6 states and h = 10 samples is
attributed exactly in a fresh interpreter, so that no size inherits another's
heap. The three passes over the 2^p table are timed one by one: the value
table (``coalition_values``), the contraction (``shapley_from_table``) and
the axiom checks (``verify_axioms``). Per size the script prints the three
times, the tracemalloc peak of a second contraction (the timed one runs
untraced, as tracemalloc slows every allocation), the process's peak resident
set (``ru_maxrss``) and the sha256 of the table followed by the Shapley
values, so that two checkouts can be compared for speed, memory and
identical bits.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_exact_path.py

``--size trace 20`` runs one size in the current process. BLAS runs on one
thread, as in perfbench, unless the environment says otherwise; the digests
do not depend on it.
"""

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sensor_shapley import (
    AttributionMethod,
    LtiModel,
    Sensor,
    ValueFunctionKind,
    coalition_values,
    per_sensor_gramians,
    verify_axioms,
)
from sensor_shapley.shapley import _attribution, shapley_from_table

SIZES = (("trace", 16), ("trace", 20), ("trace", 22), ("trace", 24),
         ("min-eig", 16), ("min-eig", 20), ("min-eig", 22))
STATES, HORIZON = 6, 10


def seeded_model(p: int) -> LtiModel:
    # A stable random state matrix and p random sensor rows, seeded by p.
    rng = np.random.default_rng(p)
    a = rng.standard_normal((STATES, STATES))
    a /= 1.1 * np.max(np.abs(np.linalg.eigvals(a)))
    sensors = tuple(Sensor(f"s{i}", rng.standard_normal(STATES)) for i in range(p))
    return LtiModel(a, sensors, HORIZON)


def timed_passes(kind: ValueFunctionKind, model: LtiModel):
    # The table, the contraction and the axiom checks, each timed untraced,
    # and the tracemalloc peak of a second contraction.
    p = model.sensor_count
    bank = per_sensor_gramians(model)

    start = time.perf_counter()
    table = coalition_values(bank, kind)
    table_s = time.perf_counter() - start

    start = time.perf_counter()
    phi = shapley_from_table(table, p)
    contraction_s = time.perf_counter() - start
    # a second, traced call for the peak: tracemalloc would charge its own
    # bookkeeping of every allocation to the time
    tracemalloc.start()
    shapley_from_table(table, p)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    # the result shapley_exact builds from the same table and values
    singles = table[1 << np.arange(p)]
    method = AttributionMethod("exact")
    result = _attribution(model, kind, bank, method, phi, singles, table[-1], table)
    start = time.perf_counter()
    verify_axioms(result)
    axioms_s = time.perf_counter() - start
    # hashed in place: a bytes copy of the table would set the peak RSS
    digest = hashlib.sha256(table)
    digest.update(phi)
    return table_s, contraction_s, axioms_s, peak_mb, digest.hexdigest()


def run_size(metric: str, p: int) -> None:
    kind = ValueFunctionKind(metric)
    # a small warm-up pays the one-time costs (BLAS start-up, first calls)
    timed_passes(kind, seeded_model(4))
    table_s, contraction_s, axioms_s, peak_mb, digest = timed_passes(
        kind, seeded_model(p)
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{metric:<7s} p={p:<2d}  table {table_s:7.3f} s  "
        f"contraction {contraction_s:6.3f} s  axioms {1e3 * axioms_s:7.2f} ms  "
        f"contraction peak {peak_mb:6.1f} MB  maxrss {rss_mb:6.1f} MB  "
        f"sha256 {digest}",
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", nargs=2, metavar=("METRIC", "P"))
    args = parser.parse_args()
    if args.size:
        run_size(args.size[0], int(args.size[1]))
        return
    for metric, p in SIZES:
        subprocess.run(
            [sys.executable, __file__, "--size", metric, str(p)], check=True
        )


if __name__ == "__main__":
    main()
