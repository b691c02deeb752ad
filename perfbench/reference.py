"""Independent numpy reference for the numbers ``analyze`` reports.

It shares no code with ``sensor_shapley``:

* all sensor rows are propagated together (``C A^k`` as one stacked array)
  and the per-sensor Gramians come from one einsum over the time axis;
* coalition Gramians come from a highest-set-bit subset recursion,
  ``W[2^i : 2^(i+1)] = W[0 : 2^i] + G[i]``;
* values are a batched ``eigvalsh`` or trace;
* Shapley values use the coefficient form
  ``phi_i = sum_{S ni i} w(|S|-1) v(S) - sum_{S not ni i} w(|S|) v(S)``
  with weights ``s! (p-s-1)! / p!`` taken from exact integer factorials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TIME_CHUNK = 512
# Agreement demanded between the program and the reference, relative to the
# full set's largest Gramian eigenvalue.
VALUE_RTOL = 1e-9


def sensor_gramians(a: np.ndarray, rows: np.ndarray, horizon: int) -> np.ndarray:
    """Per-sensor Gramians ``G[i] = sum_k (c_i A^k)^T (c_i A^k)``, shape (p, n, n)."""
    p, n = rows.shape
    gram = np.zeros((p, n, n))
    current = np.array(rows, dtype=float)
    for start in range(0, horizon, TIME_CHUNK):
        steps = min(TIME_CHUNK, horizon - start)
        stack = np.empty((steps, p, n))
        for k in range(steps):
            stack[k] = current
            current = current @ a
        gram += np.einsum("kpi,kpj->pij", stack, stack)
    return gram


def coalition_gramians(gram: np.ndarray) -> np.ndarray:
    """Gramians of all 2^p coalitions, indexed by membership bitmask."""
    p, n, _ = gram.shape
    table = np.zeros((1 << p, n, n))
    for i in range(p):
        table[1 << i : 2 << i] = table[: 1 << i] + gram[i]
    return table


def values(metric: str, grams: np.ndarray) -> np.ndarray:
    """Metric value of each Gramian in a stack; min-eig is floored at 0."""
    if metric == "trace":
        return np.trace(grams, axis1=-2, axis2=-1)
    if metric == "min-eig":
        return np.maximum(np.linalg.eigvalsh(grams)[..., 0], 0.0)
    raise ValueError(f"unknown metric {metric!r}")


def shapley(table_values: np.ndarray) -> np.ndarray:
    """Exact Shapley values of a game given as values by coalition bitmask."""
    p = table_values.size.bit_length() - 1
    fact = math.factorial
    weight = [float(Fraction(fact(s) * fact(p - s - 1), fact(p))) for s in range(p)]
    masks = np.arange(1 << p)
    sizes = np.bitwise_count(masks)
    member = (masks[:, None] >> np.arange(p)) & 1 == 1
    joined = np.array([0.0] + weight)[sizes] * table_values
    left = np.array(weight + [0.0])[sizes] * table_values
    return (member * joined[:, None]).sum(0) - (~member * left[:, None]).sum(0)


@dataclass(frozen=True)
class Reference:
    """Reference numbers for one model and metric.

    ``shapley`` is None when the 2^p table was not built (sampled runs).
    """

    metric: str
    standalone: np.ndarray
    shapley: np.ndarray | None
    grand: float
    observable: bool
    tolerance: float


def compute(gram: np.ndarray, metric: str, *, exact: bool) -> Reference:
    """Reference standalone, grand and (if ``exact``) Shapley values, from
    the per-sensor Gramians ``gram``."""
    full = gram.sum(0)
    eigs = np.linalg.eigvalsh(full)
    observable = bool(eigs[0] > 1e-9 * max(1.0, eigs[-1]))
    tolerance = VALUE_RTOL * float(eigs[-1])
    if exact:
        table = values(metric, coalition_gramians(gram))
        standalone = table[1 << np.arange(gram.shape[0])]
        return Reference(metric, standalone, shapley(table), float(table[-1]),
                         observable, tolerance)
    return Reference(metric, values(metric, gram), None,
                     float(values(metric, full)), observable, tolerance)


def mismatches(ref: Reference, report: dict, efficiency_rtol: float) -> list[str]:
    """Ways a parsed ``analyze --format json`` report disagrees with ``ref``."""
    problems = []
    rows = report["per_sensor"]
    if report["metric"] != ref.metric:
        problems.append(f"metric {report['metric']!r}, expected {ref.metric!r}")
    if len(rows) != ref.standalone.size:
        return problems + [f"{len(rows)} sensors reported, expected {ref.standalone.size}"]
    if report["observable"] != ref.observable:
        problems.append(f"observable={report['observable']}, expected {ref.observable}")

    def compare(label, got, want):
        if not abs(got - want) <= ref.tolerance:
            problems.append(f"{label} {got!r}, reference {want!r}")

    compare("grand value", report["grand_value"], ref.grand)
    for i, row in enumerate(rows):
        if row["name"] != f"s{i}":
            problems.append(f"sensor {i} named {row['name']!r}")
        compare(f"standalone[{i}]", row["standalone"], float(ref.standalone[i]))
        if ref.shapley is not None:
            compare(f"shapley[{i}]", row["shapley"], float(ref.shapley[i]))
    total = math.fsum(row["shapley"] for row in rows)
    if ref.shapley is None and not (
        abs(total - report["grand_value"])
        <= efficiency_rtol * max(1.0, abs(report["grand_value"]))
    ):
        problems.append(f"efficiency: Shapley sum {total!r} vs grand {report['grand_value']!r}")
    return problems
