#!/usr/bin/env python3
"""Time each pass over the coalition game and print the sha256 of what it computes.

Every model is seeded by its size, so two checkouts can be compared for speed,
working memory and identical bits. BLAS runs on one thread, as in perfbench,
unless the environment says otherwise. tracemalloc slows every allocation, so
each peak comes from a call of its own and every timed call runs untraced.

* The exact path, for the trace at p = 16, 20, 22 and 24 and the minimum
  eigenvalue at p = 16, 20 and 22 (n = 6, h = 10), each size in a fresh
  interpreter: the times of the value table (``coalition_values``), the
  contraction (``shapley_from_table``) and the axiom checks
  (``verify_axioms``), the peaks of a second table and a second
  contraction, the process's ``ru_maxrss``, and the sha256 of the table
  followed by φ.
* The per-sensor Gramian bank (``per_sensor_gramians``) of a model with an
  orthogonal state matrix, at perfbench's (p, n, h) = (10, 6, 10), (40, 6, 10)
  and (8, 24, 1000), plus (40, 24, 1000), (600, 64, 2), whose sensors take
  many groups of the bank's byte budget, (3, 6, 5000), whose window takes
  many blocks of samples, the last one partial, and (12, 24, 1000), whose
  blocks hold 8 samples, the fewest the bank sums by one reduction; these are
  dense, so every sensor reaches all n states. Then one block-structured
  model at (8, 24, 1000), 2x2 rotation blocks with each sensor on one or two
  of them, where each sensor reaches at most 4 states: the median time and
  its quartiles, the peak, the peak's excess over the bank and its byte
  budget (``gramian._BANK_BYTES``, the bound the memory tests hold it to) and
  the sha256.
* The permutation sampler's prefix batches at p = 25, 40, 70 and 100 (n = 6,
  h = 10), the distinct prefixes of 100 seeded orderings as
  ``shapley_sampled`` values them: the median times of the sums alone
  (``metrics._coalition_sums`` over the entries the min-eig metric reads)
  and of the min-eig ``coalition_values``, the peak of one more values
  call, and the sha256 of its values.

Run from the repository root:

    PYTHONPATH=src python3 scripts/time_passes.py

``--size trace 20`` runs only that exact size, in the current process.
"""

import argparse
import hashlib
import os
import resource
import statistics
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
    gramian,
    metrics,
    pack_masks,
    per_sensor_gramians,
    verify_axioms,
)
from sensor_shapley.shapley import _attribution, shapley_from_table

BANK_SHAPES = ((10, 6, 10), (40, 6, 10), (8, 24, 1000), (40, 24, 1000), (600, 64, 2),
               (3, 6, 5000), (12, 24, 1000))
BLOCK_BANK_SHAPES = ((8, 24, 1000),)
SAMPLED_COUNTS = (25, 40, 70, 100)
EXACT_SIZES = (("trace", 16), ("trace", 20), ("trace", 22), ("trace", 24),
               ("min-eig", 16), ("min-eig", 20), ("min-eig", 22))
STATES, HORIZON, PERMUTATIONS, REPEATS = 6, 10, 100, 15


def timed(call):
    # The call's result and its wall time in seconds.
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def quartiles_ms(call) -> list[float]:
    # The first quartile, the median and the third quartile of the call's
    # wall times, in ms.
    times = [timed(call)[1] for _ in range(REPEATS)]
    return [1e3 * q for q in statistics.quantiles(times, n=4)]


def median_ms(call) -> float:
    return quartiles_ms(call)[1]


def traced_peak(call):
    # The call's result and its tracemalloc peak in MB.
    tracemalloc.start()
    result = call()
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return result, peak_mb


def orthogonal_model(p: int, n: int, h: int) -> LtiModel:
    # An orthogonal state matrix and p random sensor rows, seeded by the shape.
    rng = np.random.default_rng((p, n, h))
    a = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sensors = tuple(Sensor(f"s{i}", rng.standard_normal(n)) for i in range(p))
    return LtiModel(a, sensors, h)


def block_model(p: int, n: int, h: int) -> LtiModel:
    # A block-diagonal state matrix of n / 2 rotations and p sensor rows, each
    # on one or two blocks, seeded by the shape.
    rng = np.random.default_rng((p, n, h, 2))
    a = np.zeros((n, n))
    for b, angle in enumerate(rng.uniform(0.3, 2.8, n // 2)):
        c, s = np.cos(angle), np.sin(angle)
        a[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[c, -s], [s, c]]
    rows = np.zeros((p, n))
    for row in rows:
        for b in rng.choice(n // 2, size=int(rng.integers(1, 3)), replace=False):
            row[2 * b : 2 * b + 2] = rng.standard_normal(2)
    return LtiModel(a, tuple(Sensor(f"s{i}", r) for i, r in enumerate(rows)), h)


def stable_model(rng: np.random.Generator, p: int) -> LtiModel:
    # A stable random state matrix and p random sensor rows, drawn from rng.
    a = rng.standard_normal((STATES, STATES))
    a /= 1.1 * np.max(np.abs(np.linalg.eigvals(a)))
    sensors = tuple(Sensor(f"s{i}", rng.standard_normal(STATES)) for i in range(p))
    return LtiModel(a, sensors, HORIZON)


def timed_bank(model: LtiModel):
    # The quartiles of the bank time in ms, the peak in MB, the peak's excess
    # over the bank and gramian._BANK_BYTES in KiB, and the sha256 of the bank.
    bank_ms = quartiles_ms(lambda: per_sensor_gramians(model))
    bank, peak_mb = traced_peak(lambda: per_sensor_gramians(model))
    excess_kib = (peak_mb * 2**20 - bank.nbytes - gramian._BANK_BYTES) / 2**10
    return bank_ms, peak_mb, excess_kib, hashlib.sha256(bank.tobytes()).hexdigest()


def prefix_batch(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The bank of a model seeded by p, seeded (N, p) orderings and their
    # distinct prefix coalitions, as (k, w) uint64 words.
    rng = np.random.default_rng(p)
    bank = per_sensor_gramians(stable_model(rng, p))
    orderings = rng.permuted(np.tile(np.arange(p), (PERMUTATIONS, 1)), axis=1)
    singles = pack_masks(np.eye(p, dtype=bool))
    prefixes = np.bitwise_or.accumulate(singles[orderings], axis=1)
    masks = np.unique(prefixes.reshape(-1, singles.shape[1]), axis=0)
    return bank, orderings, masks


def timed_batch(p: int):
    # The batch size, the median sums and values times in ms, the peak of
    # one values call in MB and the sha256 of the values, at p sensors.
    kind = ValueFunctionKind.MIN_EIGENVALUE
    bank, _, masks = prefix_batch(p)
    entries = bank.reshape(p, -1)[:, metrics._read(kind, bank.shape[-1])]
    sums_ms = median_ms(lambda: metrics._coalition_sums(entries, masks))
    values_ms = median_ms(lambda: coalition_values(bank, kind, masks))
    values, peak_mb = traced_peak(lambda: coalition_values(bank, kind, masks))
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    return len(masks), sums_ms, values_ms, peak_mb, digest


def timed_exact(kind: ValueFunctionKind, model: LtiModel):
    # The table, contraction and axioms times in s, the peaks of a second
    # table and a second contraction in MB and the sha256 of the table
    # followed by φ.
    p = model.sensor_count
    bank = per_sensor_gramians(model)
    table, table_s = timed(lambda: coalition_values(bank, kind))
    phi, contraction_s = timed(lambda: shapley_from_table(table, p))
    _, peak_mb = traced_peak(lambda: shapley_from_table(table, p))
    # the result shapley_exact builds from the same table and values
    singles = table[1 << np.arange(p)]
    method = AttributionMethod("exact")
    result = _attribution(model, kind, bank, method, phi, singles, table[-1], table)
    _, axioms_s = timed(lambda: verify_axioms(result))
    # hashed in place: a bytes copy of the table would set the peak RSS
    digest = hashlib.sha256(table)
    digest.update(phi)
    # the second table once the first is freed, which keeps the peak RSS
    del table, result
    _, table_peak_mb = traced_peak(lambda: coalition_values(bank, kind))
    return table_s, contraction_s, axioms_s, table_peak_mb, peak_mb, digest.hexdigest()


def run_size(metric: str, p: int) -> None:
    kind = ValueFunctionKind(metric)
    # a small warm-up pays the one-time costs (BLAS start-up, first calls)
    timed_exact(kind, stable_model(np.random.default_rng(4), 4))
    table_s, contraction_s, axioms_s, table_peak_mb, peak_mb, digest = timed_exact(
        kind, stable_model(np.random.default_rng(p), p)
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{metric:<7s} p={p:<2d}  table {table_s:7.3f} s  "
        f"contraction {contraction_s:6.3f} s  axioms {1e3 * axioms_s:7.2f} ms  "
        f"table peak {table_peak_mb:6.1f} MB  contraction peak {peak_mb:6.1f} MB  "
        f"maxrss {rss_mb:6.1f} MB  sha256 {digest}",
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", nargs=2, metavar=("METRIC", "P"))
    args = parser.parse_args()
    if args.size:
        run_size(args.size[0], int(args.size[1]))
        return
    # the exact sizes go first: a child's ru_maxrss starts at the peak of the
    # process that launched it, which the passes below would raise
    for metric, p in EXACT_SIZES:
        subprocess.run([sys.executable, __file__, "--size", metric, str(p)], check=True)
    banks = [("", orthogonal_model, shape) for shape in BANK_SHAPES]
    banks += [("block ", block_model, shape) for shape in BLOCK_BANK_SHAPES]
    for label, model, (p, n, h) in banks:
        bank_ms, peak_mb, excess_kib, digest = timed_bank(model(p, n, h))
        q1, median, q3 = bank_ms
        print(
            f"{label}p={p:<3d} n={n:<3d} h={h:<5d} bank {median:8.2f} ms  "
            f"quartiles {q1:8.2f} {q3:8.2f} ms  "
            f"peak {peak_mb:6.3f} MB  over budget {excess_kib:+7.1f} KiB  "
            f"sha256 {digest}"
        )
    for p in SAMPLED_COUNTS:
        count, sums_ms, values_ms, peak_mb, digest = timed_batch(p)
        print(
            f"p={p:<4d} masks={count:<6d} sums {sums_ms:7.2f} ms  "
            f"values {values_ms:7.2f} ms  peak {peak_mb:5.2f} MB  "
            f"sha256 {digest}"
        )


if __name__ == "__main__":
    main()
