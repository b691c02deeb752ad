import importlib.util
import tracemalloc
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


def over_the_cap_payload():
    """A model document with one sensor more than exact enumeration accepts."""
    return {
        "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "sensors": [
            {"name": f"s{i}", "row": [1.0, float(i)]}
            for i in range(ENUMERATION_CAP + 1)
        ],
        "horizon_samples": 2,
    }


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


def block_models(count, seed=60604):
    """Models whose state matrix is block-diagonal in 2x2 rotations, pure or
    scaled by a radius in 0.8..1, with every sensor row on one or two blocks
    (entries over 1e-3..1e3, some exactly zero) and the first row all zero;
    n up to 24, p up to 10 and h up to 1000. Each sensor reaches only its
    own blocks, at most 4 of the n states."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        blocks, p = int(rng.integers(2, 13)), int(rng.integers(2, 11))
        state = np.zeros((2 * blocks, 2 * blocks))
        scaled = rng.random() < 0.5
        for b, angle in enumerate(rng.uniform(0.0, 2 * np.pi, blocks)):
            radius = rng.uniform(0.8, 1.0) if scaled else 1.0
            cos, sin = radius * np.cos(angle), radius * np.sin(angle)
            state[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[cos, -sin], [sin, cos]]
        rows = np.zeros((p, 2 * blocks))
        for row in rows[1:]:
            for b in rng.choice(blocks, size=int(rng.integers(1, 3)), replace=False):
                entries = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
                row[2 * b : 2 * b + 2] = entries * (rng.random(2) >= 0.2)
        sensors = tuple(Sensor(f"s{i}", r) for i, r in enumerate(rows))
        models.append(LtiModel(state, sensors, int(rng.integers(1, 1001))))
    return models


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


def coalition_gramian(bank, mask):
    """The Gramian of one coalition bitmask, as ``coalition_gramians``."""
    return coalition_gramians(bank, np.array([mask]))[0]


def eigen_solves(monkeypatch):
    """The shape of each np.linalg.eigvalsh argument from here on, in order."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def einsum_shapes(monkeypatch):
    """The shape of each np.einsum ``out`` from here on, in order; the bank
    writes one (samples, sensors, s, s) block of outer products per call."""
    shapes = []
    original = np.einsum

    def recorded(*operands, out=None, **kwargs):
        shapes.append(out.shape)
        return original(*operands, out=out, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    return shapes


def traced_peak(call, *args):
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
