import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sensor_shapley import ENUMERATION_CAP, LtiModel, Sensor, metrics
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


def wide_bank_corpus(count, seed=60601):
    """Stable models with n up to 24, p up to 11 and h up to 299; rows spread
    over 1e-3..1e3 with exact zeros (so outer products meet -0.0); and last,
    one defective (Jordan-block) state matrix."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        n, p = int(rng.integers(1, 25)), int(rng.integers(1, 12))
        state = rng.standard_normal((n, n))
        state *= rng.uniform(0.5, 1.0) / max(abs(np.linalg.eigvals(state)))
        rows = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-3, 3, (p, n))
        rows[rng.random((p, n)) < 0.25] = 0.0
        shapes.append((state, rows, int(rng.integers(1, 300))))
    shapes.append((0.9 * np.eye(6) + np.eye(6, k=1), np.eye(6)[::2] - 0.5, 299))
    return [
        LtiModel(state, tuple(Sensor(f"s{i}", r) for i, r in enumerate(rows)), h)
        for state, rows, h in shapes
    ]


def ascending_sums(bank, members):
    """Each row of a (k, p) membership matrix summed over the bank, members
    added one at a time in ascending index from +0.0: the definition of the
    bits of a coalition sum."""
    sums = np.zeros((len(members),) + bank.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for acc, row in zip(sums, members):
            for i in np.flatnonzero(row):
                acc += bank[i]
    return sums


def coalition_gramians(bank, masks):
    """Stacked ``(k, n, n)`` Gramians of a batch of bitmasks: the package's
    entry-major coalition sums over whole bank entries, made coalition-major."""
    sums = metrics._coalition_sums(bank.reshape(len(bank), -1), masks)
    return np.ascontiguousarray(sums.T).reshape((-1,) + bank.shape[1:])


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@st.composite
def edge_models(draw, max_states=4, max_sensors=5, max_horizon=1000):
    """Models at the edges of the numerical contract: a marginally stable
    (orthogonal) or a stable state matrix, horizons up to 1000, rows rescaled
    over 1e-6..1e6, and near-duplicate rows (an earlier row plus noise of
    order 1e-9 of its size)."""
    n = draw(st.integers(1, max_states))
    p = draw(st.integers(1, max_sensors))
    horizon = draw(st.integers(1, max_horizon))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    square = draw(hnp.arrays(np.float64, (n, n), elements=unit))
    if draw(st.booleans()):
        state = np.linalg.qr(square)[0]
    else:
        state = square * (0.95 / max(1.0, np.abs(square).sum(axis=1).max()))
    rows = []
    for _ in range(p):
        row = draw(hnp.arrays(np.float64, (n,), elements=unit))
        if rows and draw(st.booleans()):
            base = rows[draw(st.integers(0, len(rows) - 1))]
            row = base + 1e-9 * np.abs(base).max() * row
        else:
            row = row * 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
        rows.append(row)
    sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
    return LtiModel(state, sensors, horizon)


@pytest.fixture(scope="session")
def scenario1_model():
    return scenario_document(1).model


@pytest.fixture(scope="session")
def scenario2_model():
    return scenario_document(2).model
