import numpy as np
import pytest
from hypothesis import given, strategies as st

from sensor_shapley import (
    Coalition,
    EnumerationCapExceeded,
    LtiModel,
    Sensor,
    full_coalition,
    require_valid,
    validate_model,
)
from sensor_shapley.model import require_enumerable


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


class TestCoalition:
    def test_members_sorted_and_deduplicated(self):
        c = Coalition((3, 1, 3, 0))
        assert c.members == (0, 1, 3)
        assert list(c) == [0, 1, 3]
        assert len(c) == 3
        assert 1 in c and 2 not in c

    def test_empty_coalition(self):
        c = Coalition(())
        assert len(c) == 0
        assert c.bitmask == 0

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            Coalition((-1,))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            Coalition((1.5,))

    def test_bitmask_round_trip(self):
        c = Coalition((0, 2, 5))
        assert c.bitmask == 0b100101
        assert Coalition.from_bitmask(c.bitmask) == c

    def test_equality_is_set_like(self):
        assert Coalition((2, 1)) == Coalition((1, 2, 2))
        assert hash(Coalition((2, 1))) == hash(Coalition((1, 2)))

    @given(st.lists(st.integers(0, 40)))
    def test_canonical_order_for_any_construction(self, raw):
        c = Coalition(tuple(raw))
        assert list(c.members) == sorted(set(raw))
        assert Coalition.from_bitmask(c.bitmask) == c


class TestFullCoalition:
    def test_two_sensors(self, scenario1_model):
        assert full_coalition(scenario1_model) == Coalition((0, 1))

    def test_four_sensors(self, scenario2_model):
        assert full_coalition(scenario2_model) == Coalition((0, 1, 2, 3))

    def test_single_sensor(self):
        model = LtiModel([[1.0]], (Sensor("a", [1.0]),), 3)
        assert full_coalition(model) == Coalition((0,))


class TestRequireEnumerable:
    def test_cap_enforced(self):
        model = LtiModel(np.eye(1), tuple(Sensor(f"s{i}", [1.0]) for i in range(25)), 2)
        with pytest.raises(EnumerationCapExceeded, match="shapley_sampled"):
            require_enumerable(model)

    def test_cap_is_configurable(self):
        model = two_state_model()
        with pytest.raises(EnumerationCapExceeded):
            require_enumerable(model, cap=1)
        require_enumerable(model, cap=2)

    def test_validates_before_the_cap(self):
        model = LtiModel([[1.0]], (Sensor("a", [1.0]), Sensor("b", [1.0])), 0)
        with pytest.raises(ValueError, match="invalid model"):
            require_enumerable(model, cap=1)
