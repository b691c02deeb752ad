"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts every sub-check at its pinned tolerance. The random
corpora are seeded in conftest, so every run exercises identical models.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from sensor_shapley import (
    ValueFunctionKind,
    per_sensor_gramians,
    shapley_exact,
    shapley_permutation_oracle,
    shapley_sampled,
    value_table,
)
from sensor_shapley.model import LtiModel, Sensor
from sensor_shapley.shapley import _observability_matrix, shapley_from_table

from conftest import (
    attribution_corpus,
    coalition_gramians,
    gramian_corpus,
    load_script,
    over_the_cap_payload,
)
from oracles import gramian_direct

TRACE = ValueFunctionKind.TRACE
MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


def _report(label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"ACCEPTANCE {label}: {status}{detail}")
    assert not failures, f"{label}: {'; '.join(failures)}"


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def corpus100():
    return attribution_corpus(100)


def test_two_sensor_scenario_reproduction(scenario1_model):
    failures: list = []
    started = time.perf_counter()

    trace = shapley_exact(scenario1_model, TRACE)
    min_eig = shapley_exact(scenario1_model, MIN_EIG)
    elapsed = time.perf_counter() - started

    for i in range(2):
        _check(
            failures,
            abs(trace.standalone_values[i] - 20.0) <= 1e-9 * 20.0,
            f"trace standalone[{i}] = {trace.standalone_values[i]!r}",
        )
        _check(
            failures,
            abs(trace.shapley_values[i] - 20.0) <= 1e-9 * 20.0,
            f"trace shapley[{i}] = {trace.shapley_values[i]!r}",
        )
        _check(
            failures,
            abs(min_eig.standalone_values[i]) <= 1e-9,
            f"min-eig standalone[{i}] = {min_eig.standalone_values[i]!r}",
        )
        _check(
            failures,
            abs(min_eig.shapley_values[i] - 10.0) <= 1e-9,
            f"min-eig shapley[{i}] = {min_eig.shapley_values[i]!r}",
        )
    _check(
        failures,
        abs(min_eig.grand_value - 20.0) <= 1e-9,
        f"grand min eigenvalue = {min_eig.grand_value!r}",
    )
    _check(
        failures,
        min_eig.efficiency_residual <= 1e-9
        and trace.efficiency_residual <= 1e-9 * 40.0,
        "efficiency residual above 1e-9",
    )
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    _report("two-sensor scenario reproduction", failures)


def test_four_sensor_scenario_reproduction(scenario2_model):
    failures: list = []
    started = time.perf_counter()

    trace = shapley_exact(scenario2_model, TRACE)
    min_eig = shapley_exact(scenario2_model, MIN_EIG)
    elapsed = time.perf_counter() - started

    expected_traces = np.array([3187.0, 295.0, 5312.0, 10.0])
    _check(
        failures,
        np.all(
            np.abs(trace.standalone_values - expected_traces)
            <= 1e-9 * expected_traces
        )
        and np.all(
            np.abs(trace.shapley_values - expected_traces) <= 1e-9 * expected_traces
        ),
        f"trace values {trace.shapley_values.tolist()}",
    )

    expected_standalone = np.array([1.3920, 0.0, 0.6405, 0.0])
    expected_shapley = np.array([1.5129, 0.2306, 0.7089, 0.0243])
    _check(
        failures,
        np.all(np.abs(min_eig.standalone_values - expected_standalone) <= 1e-3),
        f"min-eig standalone {min_eig.standalone_values.tolist()}",
    )
    _check(
        failures,
        np.all(np.abs(min_eig.shapley_values - expected_shapley) <= 1e-3),
        f"min-eig shapley {min_eig.shapley_values.tolist()}",
    )

    total = float(min_eig.shapley_values.sum())
    _check(failures, abs(total - 2.477) <= 1e-3, f"min-eig total {total!r}")

    leading_pair = float(min_eig.shapley_values[0] + min_eig.shapley_values[2])
    share = leading_pair / min_eig.grand_value
    _check(
        failures,
        leading_pair >= 0.90 * min_eig.grand_value,
        f"C1+C3 share {share:.6f} < 0.90",
    )
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    _report("four-sensor scenario reproduction", failures)


def test_gramian_identity_suite():
    failures: list = []
    worst_identity = 0.0
    worst_additivity = 0.0
    for model in gramian_corpus(200):
        p = model.sensor_count
        summed_all = coalition_gramians(per_sensor_gramians(model), np.arange(1 << p))
        for mask in range(1, 1 << p):
            direct = gramian_direct(model, mask)
            scale = max(float(np.max(np.abs(direct))), 1e-300)

            stacked = _observability_matrix(model, mask)
            identity_err = float(np.max(np.abs(direct - stacked.T @ stacked)))
            worst_identity = max(worst_identity, identity_err / scale)

            summed = summed_all[mask]
            additivity_err = float(np.max(np.abs(direct - summed)))
            worst_additivity = max(worst_additivity, additivity_err / scale)

    _check(
        failures,
        worst_identity <= 1e-9,
        f"stacked-product identity off by {worst_identity:.3e} relative",
    )
    _check(
        failures,
        worst_additivity <= 1e-10,
        f"per-sensor additivity off by {worst_additivity:.3e} relative",
    )
    _report("gramian identity suite (200 models, every coalition)", failures)


def test_shapley_oracle_suite(corpus100):
    failures: list = []
    worst_gap = 0.0
    worst_residual = 0.0
    for model in corpus100:
        for kind in (TRACE, MIN_EIG):
            exact = shapley_exact(model, kind)
            oracle = shapley_permutation_oracle(model, kind)
            worst_gap = max(
                worst_gap, float(np.max(np.abs(exact.shapley_values - oracle)))
            )
            worst_residual = max(
                worst_residual,
                exact.efficiency_residual / max(1.0, abs(exact.grand_value)),
            )
    _check(
        failures,
        worst_gap <= 1e-8,
        f"exact vs permutation oracle gap {worst_gap:.3e}",
    )
    _check(
        failures,
        worst_residual <= 1e-6,
        f"efficiency residual {worst_residual:.3e} relative",
    )
    _report("shapley oracle suite (100 models, both metrics)", failures)


def test_axiom_suite(corpus100):
    failures: list = []
    worst_symmetry = 0.0
    worst_dummy = 0.0
    worst_trace_dev = 0.0
    worst_additivity = 0.0
    for model in corpus100:
        doubled = LtiModel(
            model.state_matrix,
            model.sensors + (Sensor("twin", model.sensors[0].row),),
            model.horizon_samples,
        )
        extended = LtiModel(
            model.state_matrix,
            model.sensors + (Sensor("dead", np.zeros(model.state_dimension)),),
            model.horizon_samples,
        )
        for kind in (TRACE, MIN_EIG):
            phi = shapley_exact(doubled, kind).shapley_values
            worst_symmetry = max(worst_symmetry, abs(float(phi[0] - phi[-1])))
            phi = shapley_exact(extended, kind).shapley_values
            worst_dummy = max(worst_dummy, abs(float(phi[-1])))

        trace_result = shapley_exact(model, TRACE)
        standalone = trace_result.standalone_values
        deviations = np.abs(trace_result.shapley_values - standalone)
        scale = np.maximum(1.0, np.abs(standalone))
        worst_trace_dev = max(
            worst_trace_dev,
            float(np.max(deviations / scale)),
        )

        p = model.sensor_count
        table_a = value_table(model, TRACE)
        table_b = value_table(model, MIN_EIG)
        combined = shapley_from_table(table_a + table_b, p)
        separate = shapley_from_table(table_a, p) + shapley_from_table(table_b, p)
        worst_additivity = max(
            worst_additivity, float(np.max(np.abs(combined - separate)))
        )

    _check(
        failures,
        worst_symmetry <= 1e-8,
        f"duplicate-sensor symmetry gap {worst_symmetry:.3e}",
    )
    _check(failures, worst_dummy <= 1e-12, f"zero-row dummy value {worst_dummy:.3e}")
    _check(
        failures,
        worst_trace_dev <= 1e-9,
        f"trace standalone equality off by {worst_trace_dev:.3e} relative",
    )
    _check(
        failures,
        worst_additivity <= 1e-8,
        f"composite-game additivity gap {worst_additivity:.3e}",
    )
    _report("axiom suite (100 models)", failures)


def test_sampling_estimator(scenario2_model):
    failures: list = []
    exact = shapley_exact(scenario2_model, MIN_EIG).shapley_values
    hits = 0
    for seed in range(20):
        sampled = shapley_sampled(scenario2_model, MIN_EIG, 50_000, seed=seed)
        if np.all(np.abs(sampled.shapley_values - exact) <= 5e-2):
            hits += 1
    _check(failures, hits >= 19, f"only {hits}/20 seeds within 5e-2 of exact")

    first = shapley_sampled(scenario2_model, MIN_EIG, 50_000, seed=0)
    second = shapley_sampled(scenario2_model, MIN_EIG, 50_000, seed=0)
    _check(
        failures,
        first.shapley_values.tobytes() == second.shapley_values.tobytes()
        and first.grand_value == second.grand_value,
        "identical seed did not reproduce bit-identical output",
    )
    _report("sampling estimator (20 seeds x 50000 permutations)", failures)


def test_cli_contract(tmp_path):
    failures: list = []
    # an in-process CLI run, (exit code as text, stdout, stderr), and the
    # JSON reports' bytes as the same-bits manifest of this run's BLAS core
    # records them
    corpus = load_script("same_bits_corpus")
    run = corpus.run
    manifest = corpus.manifest_path()
    _, recorded = corpus.read_manifest(manifest)
    for sid in (1, 2):
        code, out, _ = run(["analyze", "--scenario", str(sid), "--format", "json"])
        _check(failures, code == "0", f"scenario {sid} exited {code}")
        golden = recorded[f"golden-analyze_scenario{sid}.json"].split()[2]
        _check(
            failures,
            hashlib.sha256(out.encode()).hexdigest() == golden,
            f"scenario {sid} JSON differs from its golden in {manifest.name}",
        )

    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(["analyze", "--model", str(bad)])
    _check(failures, code == "2" and "syntax" in err, f"malformed input exited {code}")

    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text(
        json.dumps(
            {
                "state_matrix": [[1.0]],
                "sensors": [{"name": "a", "row": [1.0]}],
                "horizon_samples": 0,
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(["analyze", "--model", str(schema_bad)])
    _check(failures, code == "2" and "schema" in err, f"schema violation exited {code}")

    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(over_the_cap_payload()), encoding="utf-8")
    code, _, _ = run(["analyze", "--model", wide.as_posix(), "--metric", "trace"])
    _check(failures, code == "3", f"cap overflow exited {code}, expected 3")

    blind = tmp_path / "blind.json"
    blind.write_text(
        json.dumps(
            {
                "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
                "sensors": [{"name": "a", "row": [1.0, 0.0]}],
                "horizon_samples": 5,
            }
        ),
        encoding="utf-8",
    )
    code, _, _ = run(["check", "--model", str(blind)])
    _check(failures, code == "1", f"unobservable check exited {code}, expected 1")

    _report("cli contract (goldens + exit codes)", failures)
