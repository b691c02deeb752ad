"""Self-test of the benchmark's reference and model generator.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import models  # noqa: E402
import reference  # noqa: E402
from sensor_shapley.metrics import ValueFunctionKind  # noqa: E402
from sensor_shapley.report import parse_model_document  # noqa: E402
from sensor_shapley.scenarios import scenario_document  # noqa: E402
from sensor_shapley.shapley import shapley_permutation_oracle  # noqa: E402


def _sensor_gramians(model):
    rows = np.vstack([s.row for s in model.sensors])
    return reference.sensor_gramians(model.state_matrix, rows, model.horizon_samples)


@pytest.mark.parametrize("scenario", [1, 2])
def test_reference_matches_committed_golden(scenario):
    golden = json.loads(
        (ROOT / "tests" / "golden" / f"analyze_scenario{scenario}.json").read_text()
    )
    gram = _sensor_gramians(scenario_document(scenario).model)
    ref = reference.compute(gram, golden["metric"], exact=True)
    assert ref.observable == golden["observable"]
    assert abs(ref.grand - golden["grand_value"]) <= ref.tolerance
    for i, row in enumerate(golden["per_sensor"]):
        assert abs(ref.standalone[i] - row["standalone"]) <= ref.tolerance
        assert abs(ref.shapley[i] - row["shapley"]) <= ref.tolerance


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("metric", ["trace", "min-eig"])
def test_reference_matches_permutation_oracle(seed, metric):
    rng = np.random.default_rng(seed)
    spec = models.ModelSpec(int(rng.integers(2, 7)), 2 * int(rng.integers(1, 4)),
                            int(rng.integers(3, 12)), None)
    gen = models.generate(rng, spec, "oracle")
    model = parse_model_document(gen.text).model
    ref = reference.compute(gen.gram, metric, exact=True)
    oracle = shapley_permutation_oracle(model, ValueFunctionKind.from_cli_name(metric))
    np.testing.assert_allclose(ref.shapley, oracle, rtol=0, atol=ref.tolerance)
    assert abs(ref.shapley.sum() - ref.grand) <= ref.tolerance


def test_generator_is_seeded_and_mixes_observable_and_blind_coalitions():
    spec = models.ModelSpec(10, 6, 10, None)
    first = models.generate(np.random.default_rng(7), spec, "m")
    again = models.generate(np.random.default_rng(7), spec, "m")
    assert first.text == again.text
    model = parse_model_document(first.text).model
    np.testing.assert_array_equal(_sensor_gramians(model), first.gram)
    ref = reference.compute(first.gram, "min-eig", exact=True)
    assert ref.observable and ref.grand > 0
    assert (ref.standalone == 0).any()


def test_long_horizon_dynamics_are_orthogonal():
    gen = models.generate(np.random.default_rng(3), models.ModelSpec(8, 24, 50, 1.0), "m")
    a = parse_model_document(gen.text).model.state_matrix
    np.testing.assert_allclose(a @ a.T, np.eye(24), atol=1e-12)
