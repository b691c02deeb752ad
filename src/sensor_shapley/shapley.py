"""Exact and sampled Shapley attribution of observability degree to sensors.

The Shapley value of sensor i under value function v is the weighted sum of
its marginal contributions over every coalition S that excludes i:

    phi_i = sum_S w(|S|) * (v(S + {i}) - v(S)),   w(s) = s! (p-s-1)! / p!

or equally its average marginal contribution over all p! orderings in which
the sensors could be added. It is the unique allocation satisfying
efficiency (values sum to the grand value), symmetry (interchangeable
sensors get equal value), dummy (a sensor that never changes any coalition's
value gets zero) and additivity over games.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gramian import per_sensor_gramians
from .metrics import (
    ValueFunctionKind,
    coalition_values,
    evaluate,
    full_gramian,
    pack_masks,
)
from .model import LtiModel, _shown, require_enumerable

__all__ = [
    "AttributionMethod",
    "AttributionResult",
    "AxiomReport",
    "DummyCheck",
    "EfficiencyCheck",
    "EfficiencyViolation",
    "SymmetryCheck",
    "shapley_exact",
    "shapley_from_table",
    "shapley_permutation_oracle",
    "shapley_sampled",
    "verify_axioms",
]

# The permutation oracle enumerates all p! sensor orderings.
ORACLE_MAX_SENSORS = 8
# Axiom precondition checks are exhaustive up to this sensor count, beyond it
# a fixed-seed random sample of coalitions is tested instead.
AXIOM_EXHAUSTIVE_MAX_SENSORS = 12
AXIOM_SAMPLE_SIZE = 4096
_AXIOM_SAMPLE_SEED = 20_240_915
# Each candidate symmetric pair or dummy is screened on about this many of
# its coalitions before all of them are read.
_SCREEN = 4

EFFICIENCY_RTOL = 1e-6
# The contraction adds its dot products in pieces of this many values, left
# to right: OpenBLAS runs a dot of 10^4 values or fewer on one thread, so the
# bits do not depend on the BLAS thread count (one piece up to p = 14).
_PIECE = 1 << 13


class EfficiencyViolation(AssertionError):
    """Raised when exact Shapley values do not sum to the grand value."""


@dataclass(frozen=True)
class AttributionMethod:
    """How an attribution was computed: ``"exact"`` subset sums, or
    ``"permutation-sampling"`` with a recorded sample size and seed."""

    kind: str
    num_permutations: int | None = None
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class AttributionResult:
    """Per-sensor attribution of a model's observability degree.

    ``standalone_values`` and ``shapley_values`` are read-only arrays in
    ``sensor_names`` order. ``grand_gramian`` is the Gramian of the full
    sensor set, the bank's sum, from which callers take the observability
    verdict. An exact result also carries its value table
    (``values_by_bitmask``) so that ``verify_axioms`` reads, not rebuilds, it.
    """

    sensor_names: tuple[str, ...]
    standalone_values: np.ndarray
    shapley_values: np.ndarray
    grand_value: float
    efficiency_residual: float
    metric: ValueFunctionKind
    horizon_samples: int
    method: AttributionMethod
    grand_gramian: np.ndarray = field(repr=False)
    values_by_bitmask: np.ndarray | None = field(default=None, repr=False)


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
    # The coalition-size weights w(s) = s! (p-s-1)! / p!, evaluated as
    # 1 / (p * C(p-1, s)) so every intermediate integer is exact in a float.
    p = sensor_count
    weights = np.array([1.0 / (p * math.comb(p - 1, s)) for s in range(p)])
    # The coalitions without sensor i, in ascending order, are the masks
    # r = 0 .. 2^(p-1) - 1 with a zero bit inserted at i, which keeps their
    # size, so every sensor's weight operand is w(|r|). The sizes are bytes
    # built by subset doubling: bit i adds a member to the first 2^i masks.
    sizes = np.zeros((1 << p) >> 1, dtype=np.uint8)
    for i in range(p - 1):
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    weighted = weights[sizes]
    marginals = np.empty_like(weighted)
    phi = np.empty(p)
    for i in range(p):
        # Split at bit i: [:, 0] holds the coalitions without sensor i in
        # ascending order, [:, 1] the same ones with it.
        halves = values.reshape(-1, 2, 1 << i)
        np.subtract(halves[:, 1], halves[:, 0], out=marginals.reshape(-1, 1 << i))
        phi[i] = np.dot(weighted[:_PIECE], marginals[:_PIECE])
        for start in range(_PIECE, len(weighted), _PIECE):
            piece = slice(start, start + _PIECE)
            phi[i] += np.dot(weighted[piece], marginals[piece])
    return phi


def shapley_exact(model: LtiModel, kind: ValueFunctionKind) -> AttributionResult:
    """Exact Shapley attribution of the model's observability degree, from
    one table of all 2^p coalition values, which the result carries. Raises
    :class:`EfficiencyViolation` when the ``EfficiencyCheck`` that
    ``verify_axioms`` reports fails, and
    :class:`~sensor_shapley.model.EnumerationCapExceeded` for sensor counts
    above ``ENUMERATION_CAP``; use ``shapley_sampled`` there instead.
    """
    require_enumerable(model)
    bank = per_sensor_gramians(model)
    p = model.sensor_count
    table = coalition_values(bank, kind)
    phi = shapley_from_table(table, p)
    singles = table[1 << np.arange(p)]
    method = AttributionMethod("exact")
    result = _attribution(model, kind, bank, method, phi, singles, table[-1], table)
    if not _efficiency(result).passed:
        raise EfficiencyViolation(
            f"efficiency violated: Shapley values sum to {float(phi.sum())!r} "
            f"but the grand value is {result.grand_value!r}"
        )
    return result


def _attribution(model, kind, bank, method, phi, standalone, grand, table=None):
    # The result fields shared by the exact and sampled paths.
    grand = float(grand)
    grand_gramian = full_gramian(bank)
    for array in (standalone, phi, grand_gramian):
        array.setflags(write=False)
    return AttributionResult(
        sensor_names=tuple(s.name for s in model.sensors),
        standalone_values=standalone,
        shapley_values=phi,
        grand_value=grand,
        efficiency_residual=abs(float(phi.sum()) - grand),
        metric=kind,
        horizon_samples=model.horizon_samples,
        method=method,
        grand_gramian=grand_gramian,
        values_by_bitmask=table,
    )


def _unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The distinct rows of a (k, w) word array, in lexicographic order with
    # word 0 first, and each row's index among them. There is one sort path,
    # np.lexsort (primary key last), for every word count; it is an order of
    # magnitude faster than np.unique(axis=0). Equal rows get one index.
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    starts = np.ones(len(words), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(words), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _observability_matrix(model: LtiModel, mask: int) -> np.ndarray:
    # O_S, the blocks C_S A^k for k = 0..K stacked, S the members of mask.
    rows = np.array([s.row for i, s in enumerate(model.sensors) if mask >> i & 1])
    blocks, power = [], np.eye(model.state_dimension)
    for _ in range(model.horizon_samples):
        blocks.append(rows @ power)
        power = power @ model.state_matrix
    return np.vstack(blocks)


def shapley_permutation_oracle(model: LtiModel, kind: ValueFunctionKind) -> np.ndarray:
    """Shapley values by enumerating all p! sensor orderings.

    Each sensor's value is the average, over every ordering, of the change it
    causes when appended to the sensors before it. Each coalition S is valued
    as ``evaluate(kind, O_S^T O_S)`` from its stacked observability matrix
    O_S, sharing no code with the Gramian bank, the value table or the
    subset-sum path, which makes this the cross-check for ``shapley_exact``.
    Limited to small sensor counts.
    """
    p = model.sensor_count
    if p > ORACLE_MAX_SENSORS:
        raise ValueError(
            f"permutation oracle enumerates p! orderings and is limited to "
            f"{ORACLE_MAX_SENSORS} sensors, got {p}"
        )

    @functools.cache
    def coalition_value(mask: int) -> float:
        stacked = _observability_matrix(model, mask)
        return float(evaluate(kind, stacked.T @ stacked))

    totals = np.zeros(p)
    for ordering in itertools.permutations(range(p)):
        mask = 0
        previous = 0.0  # the empty coalition's value
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
    Any sensor count works. The per-ordering marginals telescope to the
    grand value, so the estimates sum to it up to accumulation rounding
    regardless of sample size. Results are bitwise reproducible for a fixed
    (model, metric, num_permutations, seed). A sensor whose marginals sum
    beyond the float range, before the division by the sample size, is
    refused with a ``ValueError``.
    """
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
    # Prefix coalitions as packed bitmask words; each distinct prefix and
    # one-member coalition is valued once, in one batch.
    singles = pack_masks(np.eye(p, dtype=bool))
    prefixes = np.bitwise_or.accumulate(singles[orderings], axis=1)
    rows = np.concatenate([prefixes.reshape(-1, singles.shape[1]), singles])
    masks, inverse = _unique_rows(rows)
    values = coalition_values(bank, kind, masks)
    prefix_values = values[inverse[:-p]].reshape(orderings.shape)

    marginals = np.diff(prefix_values, axis=1, prepend=0.0)
    # bincount adds each sensor's marginals in row order, without warnings
    phi = np.bincount(orderings.ravel(), marginals.ravel(), minlength=p)
    overflowed = np.flatnonzero(~np.isfinite(phi))
    if overflowed.size:
        raise ValueError(
            f"sampled Shapley estimate of sensor "
            f"{_shown(model.sensors[overflowed[0]].name)} overflows: its "
            f"{num_permutations} marginal contributions sum beyond the float "
            f"range"
        )
    phi /= num_permutations
    method = AttributionMethod("permutation-sampling", int(num_permutations), int(seed))
    grand = prefix_values[0, -1]
    standalone = values[inverse[-p:]]
    return _attribution(model, kind, bank, method, phi, standalone, grand)


@dataclass(frozen=True)
class EfficiencyCheck:
    """Do the Shapley values sum to the grand coalition's value?"""

    residual: float
    tolerance: float
    passed: bool


def _efficiency(result: AttributionResult) -> EfficiencyCheck:
    # The one efficiency rule, behind shapley_exact's raise and the report.
    residual = result.efficiency_residual
    tolerance = EFFICIENCY_RTOL * max(1.0, abs(result.grand_value))
    return EfficiencyCheck(residual, tolerance, residual <= tolerance)


@dataclass(frozen=True)
class SymmetryCheck:
    """A detected pair of interchangeable sensors and their Shapley gap."""

    sensors: tuple[str, str]
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


def _agreeing(values, pool, first, second, members) -> np.ndarray:
    # Row r: v(S | first[r]) and v(S | second[r]) agree for every tested S
    # holding no member. With pool None those are all such S: zero bits
    # inserted at the members (a no-op at bit 0), lower first, into
    # 0 .. 2^(p - members) - 1. Else they are the pool's, at most
    # C(24, 2) * 4096 = 1.1M values. A screen, the top few (the largest
    # masks, where min-eig values are non-zero) or the pool's first
    # _SCREEN << members, is read for every row, then all of them for the
    # rows agreeing on it; a disagreement among the few is one among all.
    agreeing = np.ones(len(first), dtype=bool)
    rows = slice(None)
    for screen in (True, False):
        bits = first[rows, None], second[rows, None]
        if pool is None:
            top = len(values) >> members
            bases = np.arange(max(0, top - _SCREEN) if screen else 0, top)
            for bit in bits:
                low = bases & (bit - 1)
                bases = (bases - low) << 1 | low
            skip = False
        else:
            bases = pool[: _SCREEN << members] if screen else pool
            skip = (bases & (bits[0] | bits[1])) != 0
        a, b = (values[bases | bit] for bit in bits)
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        agreeing[rows] = np.all((np.abs(a - b) <= tol) | skip, axis=1)
        rows = np.flatnonzero(agreeing)
    return agreeing


def verify_axioms(result: AttributionResult) -> AxiomReport:
    """Check the efficiency, symmetry, and dummy axioms on an exact result.

    The coalition values are the table the exact result carries. Symmetric
    pairs are sensors j, k whose additions are interchangeable for every
    tested coalition containing neither; dummies are sensors whose addition
    never changes any tested coalition's value. Detected pairs must have
    equal Shapley values and detected dummies must have Shapley value zero,
    both within 1e-6. Failures are reported, not raised.
    """
    values = result.values_by_bitmask
    if result.method.kind != "exact" or values is None:
        raise ValueError("axiom verification requires an exact attribution result")
    names = result.sensor_names
    p = len(names)
    phi = result.shapley_values

    # Pair j < k compares adding j with adding k, dummy j adding j with
    # adding nothing (bit 0), over the tested coalitions holding neither.
    pool = None
    if p > AXIOM_EXHAUSTIVE_MAX_SENSORS:
        rng = np.random.default_rng(_AXIOM_SAMPLE_SEED)
        pool = rng.integers(0, 1 << p, size=AXIOM_SAMPLE_SIZE, dtype=np.int64)
    j, k = np.triu_indices(p, 1)
    symmetric = _agreeing(values, pool, 1 << j, 1 << k, 2)
    single, nothing = 1 << np.arange(p), np.zeros(p, dtype=np.int64)
    dummy = _agreeing(values, pool, single, nothing, 1)

    symmetric_pairs = []
    for a, b in zip(j[symmetric], k[symmetric]):
        gap = abs(float(phi[a]) - float(phi[b]))
        symmetric_pairs.append(SymmetryCheck((names[a], names[b]), gap, gap <= 1e-6))
    dummy_sensors = []
    for i in np.flatnonzero(dummy):
        magnitude = abs(float(phi[i]))
        dummy_sensors.append(DummyCheck(names[i], magnitude, magnitude <= 1e-6))

    return AxiomReport(
        efficiency=_efficiency(result),
        symmetric_pairs=tuple(symmetric_pairs),
        dummy_sensors=tuple(dummy_sensors),
        exhaustive=pool is None,
    )
