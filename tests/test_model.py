import numpy as np
import pytest

from sensor_shapley import (
    EnumerationCapExceeded,
    LtiModel,
    Sensor,
    require_valid,
    validate_model,
)
from sensor_shapley.model import require_enumerable

from conftest import over_the_cap_model


def two_state_model(horizon=10):
    return LtiModel(
        [[1.0, 0.0], [0.0, 1.0]],
        (Sensor("a", [1.0, 1.0]), Sensor("b", [1.0, -1.0])),
        horizon,
    )


class TestValidateModel:
    def test_scenario_models_are_valid(self, scenario1_model, scenario2_model):
        assert validate_model(scenario1_model).ok
        assert validate_model(scenario2_model).ok

    def test_row_length_mismatch(self):
        model = LtiModel([[1.0, 0.0], [0.0, 1.0]], (Sensor("a", [1.0]),), 5)
        result = validate_model(model)
        assert not result.ok
        assert any("row length mismatch" in v for v in result.violations)

    def test_non_finite_state_matrix(self):
        model = LtiModel(
            [[1.0, np.nan], [0.0, 1.0]], (Sensor("a", [1.0, 0.0]),), 5
        )
        result = validate_model(model)
        assert any("non-finite entry" in v for v in result.violations)
        assert any("state_matrix" in v for v in result.violations)

    def test_non_finite_sensor_row(self):
        model = LtiModel([[1.0]], (Sensor("a", [np.inf]),), 5)
        result = validate_model(model)
        assert any("non-finite entry" in v for v in result.violations)

    def test_non_square_state_matrix(self):
        model = LtiModel([[1.0, 0.0]], (Sensor("a", [1.0, 0.0]),), 5)
        result = validate_model(model)
        assert any("square" in v for v in result.violations)

    def test_no_sensors(self):
        model = LtiModel([[1.0]], (), 5)
        result = validate_model(model)
        assert any("at least one sensor" in v for v in result.violations)

    def test_duplicate_sensor_names(self):
        model = LtiModel(
            [[1.0]], (Sensor("a", [1.0]), Sensor("a", [2.0])), 5
        )
        result = validate_model(model)
        assert any("duplicate" in v for v in result.violations)

    def test_empty_sensor_name(self):
        model = LtiModel([[1.0]], (Sensor("", [1.0]),), 5)
        result = validate_model(model)
        assert any("non-empty string" in v for v in result.violations)

    def test_bad_horizon(self):
        model = LtiModel([[1.0]], (Sensor("a", [1.0]),), 0)
        result = validate_model(model)
        assert any("horizon_samples" in v for v in result.violations)

    def test_require_valid_raises_with_all_violations(self):
        model = LtiModel([[1.0, 0.0], [0.0, 1.0]], (Sensor("a", [1.0]),), 0)
        with pytest.raises(ValueError, match="invalid model"):
            require_valid(model)

    def test_model_arrays_are_read_only(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.state_matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            model.sensors[0].row[0] = 2.0


class TestRequireEnumerable:
    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapExceeded, match="shapley_sampled"):
            require_enumerable(over_the_cap_model())

    def test_validates_before_the_cap(self):
        with pytest.raises(ValueError, match="invalid model"):
            require_enumerable(over_the_cap_model(horizon=0))
