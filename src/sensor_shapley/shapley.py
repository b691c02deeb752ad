"""Exact and sampled Shapley attribution of observability degree to sensors.

The Shapley value of sensor i under value function v is the weighted sum of
its marginal contributions over every coalition S that excludes i:

    phi_i = sum_S w(|S|) * (v(S + {i}) - v(S)),   w(s) = s! (p-s-1)! / p!

Equivalently, phi_i is the average marginal contribution of i over all p!
orderings in which the sensors could be added. ``shapley_exact`` evaluates
the subset sum from the 2^p value table, built once from the per-sensor
Gramian bank and carried on the result; ``shapley_permutation_oracle``
re-derives the same numbers by brute-force ordering enumeration and exists
as the cross-check; ``shapley_sampled`` Monte-Carlo averages over random
orderings for sensor sets too large to enumerate, at any sensor count. Both
estimators value their coalitions through one batched path
(:func:`~sensor_shapley.metrics.coalition_values`).

The attribution is "fair" in the classic cooperative-game sense: it is the
unique allocation satisfying efficiency (values sum to the grand value),
symmetry (interchangeable sensors get equal value), dummy (a sensor that
never changes any coalition's value gets zero), and additivity over games.
``verify_axioms`` checks the first three on an exact result, reading the
table that result carries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gramian import (
    coalition_gramians,
    gramian_direct,
    pack_masks,
    per_sensor_gramians,
)
from .metrics import ValueFunctionKind, coalition_values, evaluate
from .model import ENUMERATION_CAP, LtiModel, require_enumerable, require_valid

__all__ = [
    "AttributionMethod",
    "AttributionResult",
    "AxiomReport",
    "DummyCheck",
    "EfficiencyCheck",
    "SensorAttribution",
    "ShapleyWeights",
    "SymmetryCheck",
    "shapley_exact",
    "shapley_from_table",
    "shapley_permutation_oracle",
    "shapley_sampled",
    "shapley_weight",
    "verify_axioms",
]

# The permutation oracle enumerates all p! sensor orderings.
ORACLE_MAX_SENSORS = 8
# Axiom precondition checks are exhaustive up to this sensor count, beyond it
# a fixed-seed random sample of coalitions is tested instead.
AXIOM_EXHAUSTIVE_MAX_SENSORS = 12
AXIOM_SAMPLE_SIZE = 4096
_AXIOM_SAMPLE_SEED = 20_240_915

EFFICIENCY_RTOL = 1e-6


def shapley_weight(size: int, sensor_count: int) -> float:
    """Weight of one coalition of ``size`` sensors in a p-sensor attribution.

    Equals size! * (p - size - 1)! / p!, the fraction of sensor orderings in
    which exactly that coalition precedes the sensor being valued. Evaluated
    as 1 / (p * C(p-1, size)), which keeps every intermediate integer exact
    in a float for any practical p.
    """
    if sensor_count < 1:
        raise ValueError(f"sensor_count must be >= 1, got {sensor_count}")
    if not 0 <= size <= sensor_count - 1:
        raise ValueError(
            f"coalition size must be in 0..{sensor_count - 1}, got {size}"
        )
    return 1.0 / (sensor_count * math.comb(sensor_count - 1, size))


@dataclass(frozen=True)
class ShapleyWeights:
    """All coalition-size weights for a fixed sensor count.

    ``weights[s]`` applies to every coalition of size s. Over all subsets of
    the p-1 other sensors the weights sum to 1: a sensor can join every
    coalition it is not already part of.
    """

    sensor_count: int
    weights: tuple[float, ...]

    @classmethod
    def for_sensor_count(cls, sensor_count: int) -> "ShapleyWeights":
        weights = tuple(
            shapley_weight(s, sensor_count) for s in range(sensor_count)
        )
        total = sum(
            math.comb(sensor_count - 1, s) * w for s, w in enumerate(weights)
        )
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(f"weight normalization off: {total!r}")
        return cls(sensor_count, weights)


@dataclass(frozen=True)
class SensorAttribution:
    """Attribution record of one sensor: its standalone and Shapley values."""

    name: str
    standalone: float
    shapley: float


@dataclass(frozen=True)
class AttributionMethod:
    """How an attribution was computed: exact subset sums, or seeded
    permutation sampling with a recorded sample size."""

    kind: str  # "exact" | "permutation-sampling"
    num_permutations: int | None = None
    seed: int | None = None

    @classmethod
    def exact(cls) -> "AttributionMethod":
        return cls("exact")

    @classmethod
    def sampled(cls, num_permutations: int, seed: int) -> "AttributionMethod":
        return cls("permutation-sampling", num_permutations, seed)


@dataclass(frozen=True)
class AttributionResult:
    """Per-sensor attribution of a model's observability degree.

    ``grand_gramian`` is the Gramian of the full sensor set, the bank's sum,
    from which callers take the observability verdict. An exact result also
    carries its value table (``values_by_bitmask``) so that
    ``verify_axioms`` reads rather than rebuilds it.
    """

    sensors: tuple[SensorAttribution, ...]
    grand_value: float
    efficiency_residual: float
    metric: ValueFunctionKind
    horizon_samples: int
    method: AttributionMethod
    grand_gramian: np.ndarray = field(compare=False, repr=False)
    values_by_bitmask: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def shapley_values(self) -> np.ndarray:
        return np.array([s.shapley for s in self.sensors])

    @property
    def standalone_values(self) -> np.ndarray:
        return np.array([s.standalone for s in self.sensors])

    @property
    def standalone_deviations(self) -> np.ndarray:
        """Per-sensor gap |phi_i - v({i})| between Shapley and standalone values.

        For an additive metric like the trace, a sensor's marginal
        contribution to every coalition equals its standalone value and the
        weights sum to 1, so every deviation is zero. Non-additive metrics
        (minimum eigenvalue) deviate whenever interaction effects are
        present; the deviations are returned for inspection, not asserted
        against.
        """
        return np.abs(self.shapley_values - self.standalone_values)


def shapley_from_table(values_by_bitmask: np.ndarray, sensor_count: int) -> np.ndarray:
    """Exact Shapley values of an arbitrary coalition game given as a dense
    table of values indexed by membership bitmask.

    This is the engine behind ``shapley_exact``; it also lets two games over
    the same sensors be composed (by adding their tables) to exercise the
    additivity axiom directly.
    """
    values = np.asarray(values_by_bitmask, dtype=float)
    if values.shape != (1 << sensor_count,):
        raise ValueError(
            f"expected {1 << sensor_count} coalition values, got {values.shape}"
        )
    weights = np.array(ShapleyWeights.for_sensor_count(sensor_count).weights)
    masks = np.arange(1 << sensor_count, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    phi = np.empty(sensor_count)
    for i in range(sensor_count):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        marginals = values[without | bit] - values[without]
        phi[i] = np.dot(weights[sizes[without]], marginals)
    return phi


def shapley_exact(
    model: LtiModel, kind: ValueFunctionKind, *, cap: int = ENUMERATION_CAP
) -> AttributionResult:
    """Exact Shapley attribution of the model's observability degree.

    The per-sensor bank is built once and every coalition value is drawn
    from one table over it, so the metric is evaluated exactly once per
    coalition; the result carries that table. Raises
    :class:`~sensor_shapley.model.EnumerationCapExceeded` for sensor counts
    above ``cap``; use ``shapley_sampled`` there instead.
    """
    require_enumerable(model, cap)
    bank = per_sensor_gramians(model)
    p = model.sensor_count
    table = coalition_values(bank, kind)
    phi = shapley_from_table(table, p)
    singles = table[1 << np.arange(p)]
    method = AttributionMethod.exact()
    result = _attribution(model, kind, bank, method, phi, singles, table[-1], table)
    grand = result.grand_value
    if result.efficiency_residual > EFFICIENCY_RTOL * max(1.0, abs(grand)):
        raise AssertionError(
            f"efficiency violated: Shapley values sum to {phi.sum()!r} "
            f"but the grand value is {grand!r}"
        )
    return result


def _attribution(model, kind, bank, method, phi, standalone, grand, table=None):
    # The result fields shared by the exact and sampled paths; the grand
    # Gramian is the bank's full-set sum.
    grand = float(grand)
    full = pack_masks(np.ones((1, len(bank)), dtype=bool))
    grand_gramian = coalition_gramians(bank, full)[0]
    grand_gramian.setflags(write=False)
    return AttributionResult(
        sensors=tuple(
            SensorAttribution(s.name, float(standalone[i]), float(phi[i]))
            for i, s in enumerate(model.sensors)
        ),
        grand_value=grand,
        efficiency_residual=abs(float(phi.sum()) - grand),
        metric=kind,
        horizon_samples=model.horizon_samples,
        method=method,
        grand_gramian=grand_gramian,
        values_by_bitmask=table,
    )


def _unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The distinct rows of a (k, w) word array and each row's index among
    # them. A radix-style lexicographic sort (any sort on the last word, then
    # stable sorts towards the first) is an order of magnitude faster than
    # np.unique(axis=0).
    order = np.argsort(words[:, -1])
    for j in range(words.shape[1] - 2, -1, -1):
        order = order[np.argsort(words[order, j], kind="stable")]
    ordered = words[order]
    starts = np.ones(len(words), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(words), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def shapley_permutation_oracle(model: LtiModel, kind: ValueFunctionKind) -> np.ndarray:
    """Shapley values by enumerating all p! sensor orderings.

    Each sensor's value is the average, over every ordering, of the change it
    causes when appended to the sensors before it. Each coalition's value is
    built from the definition-level Gramian construction, independent of the
    value table and subset-sum path, which makes this the cross-check for
    ``shapley_exact``. Limited to small sensor counts.
    """
    require_valid(model)
    p = model.sensor_count
    if p > ORACLE_MAX_SENSORS:
        raise ValueError(
            f"permutation oracle enumerates p! orderings and is limited to "
            f"{ORACLE_MAX_SENSORS} sensors, got {p}"
        )
    cache: dict[int, float] = {0: 0.0}

    def coalition_value(mask: int) -> float:
        try:
            return cache[mask]
        except KeyError:
            value = float(evaluate(kind, gramian_direct(model, mask)))
            cache[mask] = value
            return value

    totals = np.zeros(p)
    for ordering in itertools.permutations(range(p)):
        mask = 0
        previous = 0.0
        for i in ordering:
            mask |= 1 << i
            current = coalition_value(mask)
            totals[i] += current - previous
            previous = current
    return totals / math.factorial(p)


def shapley_sampled(
    model: LtiModel,
    kind: ValueFunctionKind,
    num_permutations: int,
    seed: int,
) -> AttributionResult:
    """Monte-Carlo Shapley estimate from uniformly random sensor orderings.

    Draws ``num_permutations`` orderings from a seeded PCG64 generator
    (numpy's default; row r equals the r-th of successive
    ``rng.permutation(p)`` calls) and averages each sensor's marginal
    contribution along them, the estimator of Castro, Gomez & Tejada (2009).
    Prefix coalitions are packed bitmask words, so any sensor count works;
    each distinct coalition is valued once. The per-ordering marginals
    telescope to the grand value, so the estimates sum to it up to
    accumulation rounding regardless of sample size. Results are bitwise
    reproducible for a fixed (model, metric, num_permutations, seed).
    """
    require_valid(model)
    if num_permutations < 1:
        raise ValueError(
            f"num_permutations must be a positive integer, got {num_permutations}"
        )
    p = model.sensor_count
    bank = per_sensor_gramians(model)
    rng = np.random.default_rng(seed)
    orderings = rng.permuted(
        np.tile(np.arange(p, dtype=np.int64), (num_permutations, 1)), axis=1
    )
    singles = pack_masks(np.eye(p, dtype=bool))
    prefixes = np.bitwise_or.accumulate(singles[orderings], axis=1)
    masks, inverse = _unique_rows(
        np.concatenate([singles, prefixes.reshape(-1, singles.shape[1])])
    )
    values = coalition_values(bank, kind, masks)[inverse]
    standalone, prefix_values = values[:p], values[p:].reshape(orderings.shape)

    marginals = np.diff(prefix_values, axis=1, prepend=0.0)
    phi = np.zeros(p)
    np.add.at(phi, orderings, marginals)
    phi /= num_permutations
    method = AttributionMethod.sampled(num_permutations, seed)
    grand = prefix_values[0, -1]
    return _attribution(model, kind, bank, method, phi, standalone, grand)


@dataclass(frozen=True)
class EfficiencyCheck:
    """Do the Shapley values sum to the grand coalition's value?"""

    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SymmetryCheck:
    """A detected pair of interchangeable sensors and their Shapley gap."""

    first: str
    second: str
    shapley_gap: float
    passed: bool


@dataclass(frozen=True)
class DummyCheck:
    """A detected no-contribution sensor and its Shapley magnitude."""

    name: str
    shapley_magnitude: float
    passed: bool


@dataclass(frozen=True)
class AxiomReport:
    """Efficiency, symmetry, and dummy checks for one exact attribution.

    Symmetry and dummy preconditions are universally quantified over
    coalitions; ``exhaustive`` records whether every coalition was tested or
    a fixed-seed random sample was used (sensor counts above
    ``AXIOM_EXHAUSTIVE_MAX_SENSORS``).
    """

    efficiency: EfficiencyCheck
    symmetric_pairs: tuple[SymmetryCheck, ...]
    dummy_sensors: tuple[DummyCheck, ...]
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return (
            self.efficiency.passed
            and all(c.passed for c in self.symmetric_pairs)
            and all(c.passed for c in self.dummy_sensors)
        )


def _values_agree(a: np.ndarray, b: np.ndarray) -> bool:
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= tol))


def verify_axioms(
    model: LtiModel, kind: ValueFunctionKind, result: AttributionResult
) -> AxiomReport:
    """Check the efficiency, symmetry, and dummy axioms on an exact result.

    The coalition values are the table the exact result carries, so
    ``kind`` must be the result's metric. Symmetric pairs are sensors j, k
    whose additions are interchangeable for every tested coalition
    containing neither; dummies are sensors whose addition never changes any
    tested coalition's value. Detected pairs must have equal Shapley values
    and detected dummies must have Shapley value zero, both within 1e-6.
    Failures are reported, not raised.
    """
    values = result.values_by_bitmask
    if result.method.kind != "exact" or values is None:
        raise ValueError("axiom verification requires an exact attribution result")
    if kind is not result.metric:
        raise ValueError(
            f"result was computed for metric {result.metric.cli_name!r}, "
            f"not {kind.cli_name!r}"
        )
    p = model.sensor_count
    phi = result.shapley_values

    residual, grand = result.efficiency_residual, result.grand_value
    tolerance = EFFICIENCY_RTOL * max(1.0, abs(grand))
    efficiency = EfficiencyCheck(residual, tolerance, residual <= tolerance)

    exhaustive = p <= AXIOM_EXHAUSTIVE_MAX_SENSORS
    all_masks = np.arange(1 << p, dtype=np.int64)
    if not exhaustive:
        rng = np.random.default_rng(_AXIOM_SAMPLE_SEED)
        sample = rng.integers(0, 1 << p, size=AXIOM_SAMPLE_SIZE, dtype=np.int64)

    def masks_excluding(bits: int) -> np.ndarray:
        pool = all_masks if exhaustive else sample
        return pool[(pool & bits) == 0]

    symmetric_pairs = []
    for j in range(p):
        for k in range(j + 1, p):
            base = masks_excluding((1 << j) | (1 << k))
            if _values_agree(values[base | (1 << j)], values[base | (1 << k)]):
                gap = abs(float(phi[j]) - float(phi[k]))
                symmetric_pairs.append(
                    SymmetryCheck(
                        first=model.sensors[j].name,
                        second=model.sensors[k].name,
                        shapley_gap=gap,
                        passed=gap <= 1e-6,
                    )
                )

    dummy_sensors = []
    for j in range(p):
        base = masks_excluding(1 << j)
        if _values_agree(values[base | (1 << j)], values[base]):
            magnitude = abs(float(phi[j]))
            dummy_sensors.append(
                DummyCheck(
                    name=model.sensors[j].name,
                    shapley_magnitude=magnitude,
                    passed=magnitude <= 1e-6,
                )
            )

    return AxiomReport(
        efficiency=efficiency,
        symmetric_pairs=tuple(symmetric_pairs),
        dummy_sensors=tuple(dummy_sensors),
        exhaustive=exhaustive,
    )
