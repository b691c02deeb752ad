import dataclasses

import numpy as np
import pytest

from sensor_shapley import (
    EnumerationCapExceeded,
    InvalidModel,
    LtiModel,
    Sensor,
)
from sensor_shapley.model import require_enumerable, validate_model

from conftest import over_the_cap_model


def two_state_model(horizon=10):
    return LtiModel(
        [[1.0, 0.0], [0.0, 1.0]],
        (Sensor("a", [1.0, 1.0]), Sensor("b", [1.0, -1.0])),
        horizon,
    )


def violations_of(state_matrix, sensors, horizon):
    """The violations an ``LtiModel`` built from these fields raises with."""
    with pytest.raises(InvalidModel) as err:
        LtiModel(state_matrix, sensors, horizon)
    return err.value.violations


class TestValidateModel:
    def test_scenario_models_are_valid(self, scenario1_model, scenario2_model):
        assert validate_model(scenario1_model).ok
        assert validate_model(scenario2_model).ok

    def test_row_length_mismatch(self):
        violations = violations_of([[1.0, 0.0], [0.0, 1.0]], (Sensor("a", [1.0]),), 5)
        assert any("row length mismatch" in v for v in violations)

    def test_non_finite_state_matrix(self):
        violations = violations_of(
            [[1.0, np.nan], [0.0, 1.0]], (Sensor("a", [1.0, 0.0]),), 5
        )
        assert any("non-finite entry" in v for v in violations)
        assert any("state_matrix" in v for v in violations)

    def test_non_finite_sensor_row(self):
        violations = violations_of([[1.0]], (Sensor("a", [np.inf]),), 5)
        assert any("non-finite entry" in v for v in violations)

    def test_non_square_state_matrix(self):
        violations = violations_of([[1.0, 0.0]], (Sensor("a", [1.0, 0.0]),), 5)
        assert any("square" in v for v in violations)

    def test_no_sensors(self):
        violations = violations_of([[1.0]], (), 5)
        assert any("at least one sensor" in v for v in violations)

    def test_duplicate_sensor_names(self):
        violations = violations_of(
            [[1.0]], (Sensor("a", [1.0]), Sensor("a", [2.0])), 5
        )
        assert any("duplicate" in v for v in violations)

    def test_sensor_row_must_be_a_vector(self):
        violations = violations_of(
            [[1.0, 0.0], [0.0, 1.0]], (Sensor("a", [[1.0, 0.0]]),), 5
        )
        assert violations == ("sensors[0].row: expected a vector, got shape (1, 2)",)

    def test_empty_sensor_name(self):
        violations = violations_of([[1.0]], (Sensor("", [1.0]),), 5)
        assert any("non-empty string" in v for v in violations)

    @pytest.mark.parametrize(
        "name",
        ["a\nb", "\x1b[31ma", "a\tb", "a\x9b", "a\u2028b", "a\u2029b"],
        ids=["line-feed", "escape", "tab", "c1-escape", "line-sep", "paragraph-sep"],
    )
    def test_sensor_name_with_control_character(self, name):
        # a line break would split the sensor's table row and check line
        violations = violations_of([[1.0]], (Sensor(name, [1.0]),), 5)
        assert violations == (f"sensors[0].name: control character in {name!r}",)

    def test_bad_horizon(self):
        violations = violations_of([[1.0]], (Sensor("a", [1.0]),), 0)
        assert any("horizon_samples" in v for v in violations)

    def test_invalid_model_lists_all_violations(self):
        violations = violations_of(
            [[1.0, 0.0], [0.0, 1.0]], (Sensor("a", [1.0]),), 0
        )
        assert violations == (
            "sensors[0].row: row length mismatch (got 1, state dimension is 2)",
            "horizon_samples: must be a positive integer, got 0",
        )
        with pytest.raises(InvalidModel) as err:
            LtiModel([[1.0, 0.0], [0.0, 1.0]], (Sensor("a", [1.0]),), 0)
        assert str(err.value) == "invalid model: " + "; ".join(violations)

    def test_replace_revalidates(self):
        with pytest.raises(InvalidModel, match="horizon_samples"):
            dataclasses.replace(two_state_model(), horizon_samples=0)

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
        # an invalid model over the cap never exists to be capped
        with pytest.raises(InvalidModel, match="invalid model") as err:
            over_the_cap_model(horizon=0)
        assert err.value.violations == (
            "horizon_samples: must be a positive integer, got 0",
        )
