import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sensor_shapley import ENUMERATION_CAP, LtiModel, Sensor
from sensor_shapley.scenarios import scenario_document


def make_random_model(rng, *, max_states=5, max_sensors=6, max_horizon=12, scale=2.0):
    """One random model with uniform entries in [-scale, scale]."""
    n = int(rng.integers(1, max_states + 1))
    p = int(rng.integers(1, max_sensors + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    state = rng.uniform(-scale, scale, size=(n, n))
    sensors = tuple(
        Sensor(f"s{i}", rng.uniform(-scale, scale, size=n)) for i in range(p)
    )
    return LtiModel(state, sensors, horizon)


def gramian_corpus(count, seed=1234501):
    """Models for Gramian identity checks; relative tolerances, so wide scale."""
    rng = np.random.default_rng(seed)
    return [
        make_random_model(rng, max_states=5, max_sensors=6, max_horizon=12, scale=2.0)
        for _ in range(count)
    ]


def attribution_corpus(count, seed=987603):
    """Models for Shapley/axiom checks. Kept at moderate horizon and entry
    scale so coalition values stay small enough for the absolute tolerances
    (1e-8 and tighter) to be meaningful against float accumulation error."""
    rng = np.random.default_rng(seed)
    return [
        make_random_model(rng, max_states=4, max_sensors=6, max_horizon=6, scale=1.0)
        for _ in range(count)
    ]


def over_the_cap_model(horizon=2):
    """A model with one sensor more than exact enumeration accepts."""
    sensors = tuple(Sensor(f"s{i}", [1.0]) for i in range(ENUMERATION_CAP + 1))
    return LtiModel(np.eye(1), sensors, horizon)


@st.composite
def lti_models(draw, max_states=4, max_sensors=5, max_horizon=8, scale=2.0):
    n = draw(st.integers(1, max_states))
    p = draw(st.integers(1, max_sensors))
    horizon = draw(st.integers(1, max_horizon))
    finite = st.floats(
        min_value=-scale, max_value=scale, allow_nan=False, allow_infinity=False
    )
    state = draw(hnp.arrays(np.float64, (n, n), elements=finite))
    rows = draw(
        st.lists(
            hnp.arrays(np.float64, (n,), elements=finite), min_size=p, max_size=p
        )
    )
    sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
    return LtiModel(state, sensors, horizon)


@pytest.fixture(scope="session")
def scenario1_model():
    return scenario_document(1).model


@pytest.fixture(scope="session")
def scenario2_model():
    return scenario_document(2).model
