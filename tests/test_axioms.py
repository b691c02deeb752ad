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

TRACE = ValueFunctionKind.TRACE
MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


class TestVerifyAxioms:
    def test_complementary_pair_detected_as_symmetric(self, scenario1_model):
        result = shapley_exact(scenario1_model, MIN_EIG)
        report = verify_axioms(result)
        assert report.passed
        assert report.efficiency.passed
        pairs = {(p.first, p.second) for p in report.symmetric_pairs}
        assert ("C1", "C2") in pairs
        assert all(p.passed for p in report.symmetric_pairs)
        assert report.exhaustive

    def test_efficiency_distributes_grand_min_eigenvalue(self, scenario2_model):
        result = shapley_exact(scenario2_model, MIN_EIG)
        report = verify_axioms(result)
        assert report.efficiency.passed
        assert sum(s.shapley for s in result.sensors) == pytest.approx(
            2.477, abs=1e-3
        )

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
        pairs = {(p.first, p.second) for p in report.symmetric_pairs}
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
        pairs = {(p.first, p.second) for p in report.symmetric_pairs}
        assert ("s0", "s0-copy") in pairs
        assert report.efficiency.passed


class TestStandaloneDeviations:
    def test_trace_deviations_vanish(self, scenario2_model):
        deviations = shapley_exact(scenario2_model, TRACE).standalone_deviations
        assert np.all(deviations <= 1e-9 * np.array([3187.0, 295.0, 5312.0, 10.0]))

    def test_min_eig_deviations_expose_interaction_credit(self, scenario2_model):
        deviations = shapley_exact(scenario2_model, MIN_EIG).standalone_deviations
        np.testing.assert_allclose(
            deviations, [0.1209, 0.2306, 0.0684, 0.0243], atol=1e-3
        )

    def test_single_sensor_never_deviates(self):
        model = LtiModel([[0.9]], (Sensor("solo", [1.5]),), 4)
        for kind in (TRACE, MIN_EIG):
            np.testing.assert_allclose(
                shapley_exact(model, kind).standalone_deviations, [0.0], atol=1e-12
            )

    def test_interaction_credit_when_no_sensor_suffices(self, scenario1_model):
        # both sensors are worthless alone yet carry the whole degree jointly
        result = shapley_exact(scenario1_model, MIN_EIG)
        assert np.all(result.standalone_values == 0.0)
        assert np.all(result.shapley_values > 9.999)
