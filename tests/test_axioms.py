import numpy as np
import pytest

from sensor_shapley import (
    LtiModel,
    Sensor,
    ValueFunctionKind,
    shapley_exact,
    shapley_sampled,
    verify_axioms,
)
from sensor_shapley import shapley as shapley_module
from sensor_shapley.shapley import (
    AttributionMethod,
    AttributionResult,
    AxiomReport,
    DummyCheck,
    EfficiencyCheck,
    SymmetryCheck,
    shapley_from_table,
)

TRACE = ValueFunctionKind.TRACE
MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


class TestVerifyAxioms:
    def test_complementary_pair_detected_as_symmetric(self, scenario1_model):
        result = shapley_exact(scenario1_model, MIN_EIG)
        report = verify_axioms(result)
        assert report.passed
        assert report.efficiency.passed
        pairs = {p.sensors for p in report.symmetric_pairs}
        assert ("C1", "C2") in pairs
        assert all(p.passed for p in report.symmetric_pairs)
        assert report.exhaustive

    def test_efficiency_distributes_grand_min_eigenvalue(self, scenario2_model):
        result = shapley_exact(scenario2_model, MIN_EIG)
        report = verify_axioms(result)
        assert report.efficiency.passed
        assert result.shapley_values.sum() == pytest.approx(2.477, abs=1e-3)

    def test_zero_row_sensor_flagged_dummy(self):
        model = LtiModel(
            np.eye(2),
            (
                Sensor("live-a", [1.0, 1.0]),
                Sensor("live-b", [1.0, -1.0]),
                Sensor("dead", [0.0, 0.0]),
            ),
            6,
        )
        for kind in (TRACE, MIN_EIG):
            result = shapley_exact(model, kind)
            report = verify_axioms(result)
            dummies = {d.name for d in report.dummy_sensors}
            assert dummies == {"dead"}
            assert all(d.passed for d in report.dummy_sensors)
            assert result.shapley_values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_sensor_detected_as_symmetric(self):
        model = LtiModel(
            [[1.0, 1.0], [0.0, 1.0]],
            (Sensor("x", [1.0, 0.0]), Sensor("y", [0.0, 1.0]), Sensor("x2", [1.0, 0.0])),
            5,
        )
        result = shapley_exact(model, MIN_EIG)
        report = verify_axioms(result)
        pairs = {p.sensors for p in report.symmetric_pairs}
        assert ("x", "x2") in pairs

    def test_requires_exact_result(self, scenario2_model):
        sampled = shapley_sampled(scenario2_model, MIN_EIG, 50, seed=1)
        with pytest.raises(ValueError, match="exact"):
            verify_axioms(sampled)

    def test_reads_the_table_the_result_carries(self, scenario2_model, monkeypatch):
        result = shapley_exact(scenario2_model, MIN_EIG)

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_axioms rebuilt a coalition value")

        monkeypatch.setattr(shapley_module, "per_sensor_gramians", forbidden)
        monkeypatch.setattr(shapley_module, "coalition_values", forbidden)
        assert verify_axioms(result).passed

    def test_no_false_positives_on_distinct_sensors(self, scenario2_model):
        result = shapley_exact(scenario2_model, MIN_EIG)
        report = verify_axioms(result)
        assert report.symmetric_pairs == ()
        assert report.dummy_sensors == ()

    def test_sampled_detection_above_exhaustive_limit(self):
        # 13 sensors forces the fixed-seed coalition sample; the duplicated
        # pair must still be found
        rng = np.random.default_rng(8)
        rows = [rng.uniform(-1, 1, 2) for _ in range(12)]
        sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
        sensors += (Sensor("s0-copy", rows[0]),)
        model = LtiModel(np.eye(2), sensors, 3)
        result = shapley_exact(model, TRACE)
        report = verify_axioms(result)
        assert not report.exhaustive
        pairs = {p.sensors for p in report.symmetric_pairs}
        assert ("s0", "s0-copy") in pairs
        assert report.efficiency.passed


class TestStandaloneDeviations:
    def test_trace_deviations_vanish(self, scenario2_model):
        r = shapley_exact(scenario2_model, TRACE)
        deviations = np.abs(r.shapley_values - r.standalone_values)
        assert np.all(deviations <= 1e-9 * np.array([3187.0, 295.0, 5312.0, 10.0]))

    def test_min_eig_deviations_expose_interaction_credit(self, scenario2_model):
        r = shapley_exact(scenario2_model, MIN_EIG)
        deviations = np.abs(r.shapley_values - r.standalone_values)
        np.testing.assert_allclose(
            deviations, [0.1209, 0.2306, 0.0684, 0.0243], atol=1e-3
        )

    def test_single_sensor_never_deviates(self):
        model = LtiModel([[0.9]], (Sensor("solo", [1.5]),), 4)
        for kind in (TRACE, MIN_EIG):
            r = shapley_exact(model, kind)
            np.testing.assert_allclose(
                np.abs(r.shapley_values - r.standalone_values), [0.0], atol=1e-12
            )

    def test_interaction_credit_when_no_sensor_suffices(self, scenario1_model):
        # both sensors are worthless alone yet carry the whole degree jointly
        result = shapley_exact(scenario1_model, MIN_EIG)
        assert np.all(result.standalone_values == 0.0)
        assert np.all(result.shapley_values > 9.999)


def verify_axioms_oracle(result):
    """The per-pair, per-sensor loop form of ``verify_axioms``: each check
    filters the whole coalition pool for the coalitions it reads."""
    values = result.values_by_bitmask
    names = result.sensor_names
    p = len(names)
    phi = result.shapley_values
    residual, grand = result.efficiency_residual, result.grand_value
    tolerance = shapley_module.EFFICIENCY_RTOL * max(1.0, abs(grand))
    efficiency = EfficiencyCheck(residual, tolerance, residual <= tolerance)

    exhaustive = p <= shapley_module.AXIOM_EXHAUSTIVE_MAX_SENSORS
    if exhaustive:
        pool = np.arange(1 << p, dtype=np.int64)
    else:
        rng = np.random.default_rng(shapley_module._AXIOM_SAMPLE_SEED)
        pool = rng.integers(
            0, 1 << p, size=shapley_module.AXIOM_SAMPLE_SIZE, dtype=np.int64
        )

    def agree(a, b):
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        return bool(np.all(np.abs(a - b) <= tol))

    symmetric_pairs = []
    for j in range(p):
        for k in range(j + 1, p):
            base = pool[(pool & ((1 << j) | (1 << k))) == 0]
            if agree(values[base | (1 << j)], values[base | (1 << k)]):
                gap = abs(float(phi[j]) - float(phi[k]))
                symmetric_pairs.append(
                    SymmetryCheck((names[j], names[k]), gap, gap <= 1e-6)
                )
    dummy_sensors = []
    for j in range(p):
        base = pool[(pool & (1 << j)) == 0]
        if agree(values[base | (1 << j)], values[base]):
            magnitude = abs(float(phi[j]))
            dummy_sensors.append(DummyCheck(names[j], magnitude, magnitude <= 1e-6))
    return AxiomReport(
        efficiency, tuple(symmetric_pairs), tuple(dummy_sensors), exhaustive
    )


def axiom_game(p, seed, eps):
    """An exact result for a seeded game v(S) = 10 w(S)^2 / (1 + u(S)) over
    p sensors, where w and u add per-sensor weights. Sensor 0 has its own
    weights; others may be dummies (zero weights) or duplicate an earlier
    sensor; for p >= 3 sensor p-2 is a dummy and sensor p-1 duplicates
    sensor 0. Every coalition holding either of those two is scaled by
    1 + eps."""
    rng = np.random.default_rng(seed)
    w, u = rng.uniform(1.0, 3.0, p), rng.uniform(0.0, 1.0, p)
    roles = rng.integers(0, 3, p)  # 0 own weights, 1 dummy, 2 duplicate
    roles[0] = 0
    if p >= 3:
        roles[-2:] = 1, 2
    for i, role in enumerate(roles):
        if role == 1:
            w[i] = u[i] = 0.0
        elif role == 2:
            source = 0 if i == p - 1 else int(rng.integers(0, i))
            w[i], u[i] = w[source], u[source]
    members = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1
    table = 10.0 * (members @ w) ** 2 / (1.0 + members @ u)
    if p >= 3:
        table[(members[:, -1] | members[:, -2]) == 1] *= 1.0 + eps
    return exact_result(table, p)


def exact_result(table, p):
    """The exact attribution result of the game with the given table."""
    phi = shapley_from_table(table, p)
    grand = float(table[-1])
    return AttributionResult(
        sensor_names=tuple(f"s{i}" for i in range(p)),
        standalone_values=table[1 << np.arange(p)],
        shapley_values=phi,
        grand_value=grand,
        efficiency_residual=abs(float(phi.sum()) - grand),
        metric=TRACE,
        horizon_samples=1,
        method=AttributionMethod("exact"),
        grand_gramian=np.zeros((1, 1)),
        values_by_bitmask=table,
    )


class TestVerifyAxiomsOracle:
    # Relative perturbations 0.5e-9 and 2e-9 (and 0.99e-9 and 1.01e-9) sit
    # on either side of the 1e-9 agreement tolerance; p > 12 takes the
    # sampled coalition pool.
    @pytest.mark.parametrize("eps", [0.0, 0.5e-9, 0.99e-9, 1.01e-9, 2e-9])
    @pytest.mark.parametrize("p", range(1, 17))
    def test_matches_the_per_pair_loop(self, p, eps):
        result = axiom_game(p, seed=100 + p, eps=eps)
        report = verify_axioms(result)
        assert report == verify_axioms_oracle(result)
        assert report.exhaustive == (p <= 12)
        if p >= 3:
            pairs = {c.sensors for c in report.symmetric_pairs}
            dummies = {c.name for c in report.dummy_sensors}
            detected = eps < 1e-9
            assert (("s0", f"s{p - 1}") in pairs) == detected
            assert (f"s{p - 2}" in dummies) == detected


def late_neighbours(pool, p):
    """Pool coalitions S and T = S + {a}, T with two non-members, such that
    the earlier of their first places in the pool is as late as possible."""
    first = {}
    for index, mask in enumerate(pool.tolist()):
        first.setdefault(mask, index)
    _, base, a = max(
        (min(at, first[base | 1 << i]), base, i)
        for base, at in first.items()
        for i in range(p)
        if not base >> i & 1
        and base | 1 << i in first
        and bin(base | 1 << i).count("1") <= p - 2
    )
    return base, a


class TestAxiomScreen:
    # A duplicate pair (a, b) and a dummy d whose checks each disagree, by
    # 2e-9 relative, on exactly one tested coalition: v(T) is scaled for
    # T = S + {a}, which the pair reads at S and the dummy at T. On the
    # exhaustive path S is the empty coalition, the smallest mask; on the
    # sampled pool S and T sit as late in the pool as possible. Neither may
    # be reported, however few coalitions a row is screened on first.
    @pytest.mark.parametrize("p", [5, 12, 13, 16])
    def test_one_disagreeing_coalition_is_enough(self, p):
        if p <= shapley_module.AXIOM_EXHAUSTIVE_MAX_SENSORS:
            base, a = 0, 0
        else:
            rng = np.random.default_rng(shapley_module._AXIOM_SAMPLE_SEED)
            pool = rng.integers(
                0, 1 << p, size=shapley_module.AXIOM_SAMPLE_SIZE, dtype=np.int64
            )
            base, a = late_neighbours(pool, p)
        planted = base | 1 << a
        b, d = [i for i in range(p) if not planted >> i & 1][-2:]

        rng = np.random.default_rng(300 + p)
        w, u = rng.uniform(1.0, 3.0, p), rng.uniform(0.0, 1.0, p)
        w[b], u[b] = w[a], u[a]
        w[d] = u[d] = 0.0
        members = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1
        table = 10.0 * (members @ w) ** 2 / (1.0 + members @ u)
        pair, dummy = (f"s{a}", f"s{b}"), f"s{d}"

        clean = verify_axioms(exact_result(table, p))
        assert pair in {c.sensors for c in clean.symmetric_pairs}
        assert dummy in {c.name for c in clean.dummy_sensors}

        table[planted] *= 1.0 + 2e-9
        result = exact_result(table, p)
        report = verify_axioms(result)
        assert report == verify_axioms_oracle(result)
        assert pair not in {c.sensors for c in report.symmetric_pairs}
        assert dummy not in {c.name for c in report.dummy_sensors}
