import functools
import itertools
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from sensor_shapley import (
    EnumerationCapExceeded,
    LtiModel,
    Sensor,
    ValueFunctionKind,
    per_sensor_gramians,
    shapley_exact,
    shapley_permutation_oracle,
    shapley_sampled,
    value_table,
    verify_axioms,
)
from sensor_shapley import shapley
from sensor_shapley.shapley import shapley_from_table

from conftest import attribution_corpus, edge_models, over_the_cap_model

SRC = Path(__file__).resolve().parent.parent / "src"
TRACE = ValueFunctionKind.TRACE
MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


def shapley_weight(size, p):
    # The weight shapley_from_table gives a coalition of `size` sensors: in
    # the game worth 1 on {0, ..., size} and 0 elsewhere, sensor 0's only
    # non-zero marginal is joining {1, ..., size}.
    values = np.zeros(1 << p)
    values[(1 << (size + 1)) - 1] = 1.0
    return shapley_from_table(values, p)[0]


class TestShapleyWeight:
    def test_known_values(self):
        assert shapley_weight(0, 2) == pytest.approx(0.5)
        assert shapley_weight(1, 4) == pytest.approx(1.0 / 12.0)
        assert shapley_weight(0, 1) == pytest.approx(1.0)

    def test_matches_factorial_form(self):
        for p in range(1, 13):
            for s in range(p):
                expected = (
                    math.factorial(s) * math.factorial(p - s - 1) / math.factorial(p)
                )
                assert shapley_weight(s, p) == pytest.approx(expected, rel=1e-15)

    def test_weights_sum_to_one_over_all_subsets(self):
        # a sensor can join every coalition it is outside of, so the weights
        # over all subsets of the other p-1 sensors total exactly 1; in the
        # game v(S) = |S| every marginal is 1 and each value is that total
        for p in range(1, 21):
            sizes = np.bitwise_count(np.arange(1 << p)).astype(float)
            phi = shapley_from_table(sizes, p)
            assert np.all(np.abs(phi - 1.0) <= 1e-10)

    def test_weights_sum_to_one_by_explicit_enumeration(self):
        for p in range(1, 8):
            others = range(p - 1)  # the p-1 sensors besides the one valued
            total = sum(
                shapley_weight(size, p)
                for size in range(p)
                for _ in itertools.combinations(others, size)
            )
            assert abs(total - 1.0) <= 1e-10


class TestShapleyExact:
    def test_complementary_pair_min_eig(self, scenario1_model):
        result = shapley_exact(scenario1_model, MIN_EIG)
        np.testing.assert_allclose(result.shapley_values, [10.0, 10.0], rtol=1e-9)
        np.testing.assert_allclose(result.standalone_values, [0.0, 0.0], atol=1e-12)
        assert result.grand_value == pytest.approx(20.0, rel=1e-9)
        assert result.method.kind == "exact"

    def test_complementary_pair_trace(self, scenario1_model):
        result = shapley_exact(scenario1_model, TRACE)
        np.testing.assert_allclose(result.shapley_values, [20.0, 20.0], rtol=1e-9)
        np.testing.assert_allclose(result.standalone_values, [20.0, 20.0], rtol=1e-9)

    def test_four_sensor_trace(self, scenario2_model):
        result = shapley_exact(scenario2_model, TRACE)
        np.testing.assert_allclose(
            result.shapley_values, [3187.0, 295.0, 5312.0, 10.0], rtol=1e-9
        )

    def test_four_sensor_min_eig(self, scenario2_model):
        result = shapley_exact(scenario2_model, MIN_EIG)
        np.testing.assert_allclose(
            result.shapley_values,
            [1.5129, 0.2306, 0.7089, 0.0243],
            atol=1e-3,
        )
        np.testing.assert_allclose(
            result.standalone_values, [1.3920, 0.0, 0.6405, 0.0], atol=1e-3
        )

    def test_attribution_metadata(self, scenario2_model):
        result = shapley_exact(scenario2_model, MIN_EIG)
        assert result.sensor_names == ("C1", "C2", "C3", "C4")
        assert result.horizon_samples == 10
        assert result.metric is MIN_EIG
        assert result.efficiency_residual <= 1e-6 * max(1.0, result.grand_value)

    def test_result_carries_read_only_table_and_grand_gramian(self, scenario2_model):
        result = shapley_exact(scenario2_model, MIN_EIG)
        table = result.values_by_bitmask
        assert table.tolist() == value_table(scenario2_model, MIN_EIG).tolist()
        bank = per_sensor_gramians(scenario2_model)
        full = ((bank[0] + bank[1]) + bank[2]) + bank[3]
        np.testing.assert_array_equal(result.grand_gramian, full)
        assert not table.flags.writeable and not result.grand_gramian.flags.writeable
        sampled = shapley_sampled(scenario2_model, MIN_EIG, 64, seed=5)
        for r in (result, sampled):
            for values in (r.standalone_values, r.shapley_values, r.grand_gramian):
                assert not values.flags.writeable

    def test_cap_exceeded_names_sampler(self):
        with pytest.raises(EnumerationCapExceeded, match="shapley_sampled"):
            shapley_exact(over_the_cap_model(), TRACE)


class TestPermutationOracle:
    def test_complementary_pair(self, scenario1_model):
        got = shapley_permutation_oracle(scenario1_model, MIN_EIG)
        np.testing.assert_allclose(got, [10.0, 10.0], rtol=1e-12)

    def test_matches_subset_sum_on_four_sensors(self, scenario2_model):
        for kind in (TRACE, MIN_EIG):
            oracle = shapley_permutation_oracle(scenario2_model, kind)
            exact = shapley_exact(scenario2_model, kind).shapley_values
            np.testing.assert_allclose(oracle, exact, atol=1e-9)

    def test_independent_of_the_bank_and_table(self, scenario2_model, monkeypatch):
        exact = {
            kind: shapley_exact(scenario2_model, kind).shapley_values
            for kind in (TRACE, MIN_EIG)
        }

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached the bank path")

        monkeypatch.setattr(shapley, "per_sensor_gramians", refuse)
        monkeypatch.setattr(shapley, "coalition_values", refuse)
        for kind, values in exact.items():
            oracle = shapley_permutation_oracle(scenario2_model, kind)
            np.testing.assert_allclose(oracle, values, atol=1e-9)

    def test_single_sensor(self):
        model = LtiModel([[2.0]], (Sensor("a", [1.0]),), 3)
        got = shapley_permutation_oracle(model, TRACE)
        np.testing.assert_allclose(got, [21.0])

    def test_sensor_count_limit(self):
        rng = np.random.default_rng(3)
        sensors = tuple(Sensor(f"s{i}", rng.uniform(-1, 1, 2)) for i in range(9))
        model = LtiModel(np.eye(2), sensors, 2)
        with pytest.raises(ValueError, match="limited to 8"):
            shapley_permutation_oracle(model, TRACE)

    def test_oracle_agreement_on_random_corpus(self):
        for model in attribution_corpus(25, seed=31337):
            for kind in (TRACE, MIN_EIG):
                exact = shapley_exact(model, kind)
                oracle = shapley_permutation_oracle(model, kind)
                np.testing.assert_allclose(
                    exact.shapley_values, oracle, atol=1e-8
                )
                assert exact.efficiency_residual <= 1e-6 * max(
                    1.0, abs(exact.grand_value)
                )


def with_appended_sensor(model, sensor):
    return LtiModel(
        model.state_matrix, model.sensors + (sensor,), model.horizon_samples
    )


class TestAxiomsByConstruction:
    def test_duplicated_sensor_gets_equal_value(self):
        for model in attribution_corpus(15, seed=5150):
            copy = Sensor("the-copy", model.sensors[0].row)
            doubled = with_appended_sensor(model, copy)
            for kind in (TRACE, MIN_EIG):
                phi = shapley_exact(doubled, kind).shapley_values
                assert abs(phi[0] - phi[-1]) <= 1e-8

    def test_zero_row_sensor_gets_zero_value(self):
        for model in attribution_corpus(15, seed=61016):
            dead = Sensor("dead", np.zeros(model.state_dimension))
            extended = with_appended_sensor(model, dead)
            for kind in (TRACE, MIN_EIG):
                phi = shapley_exact(extended, kind).shapley_values
                assert abs(phi[-1]) <= 1e-12

    def test_trace_shapley_equals_standalone(self):
        for model in attribution_corpus(15, seed=112358):
            result = shapley_exact(model, TRACE)
            deviations = np.abs(result.shapley_values - result.standalone_values)
            scale = np.maximum(1.0, np.abs(result.standalone_values))
            assert np.all(deviations <= 1e-9 * scale)

    def test_additivity_over_composed_games(self):
        # two games over the same sensors: their summed table must attribute
        # the sum of the individual attributions
        for model in attribution_corpus(15, seed=24601):
            p = model.sensor_count
            table_a = value_table(model, TRACE)
            table_b = value_table(model, MIN_EIG)
            combined = shapley_from_table(table_a + table_b, p)
            separate = shapley_from_table(table_a, p) + shapley_from_table(table_b, p)
            np.testing.assert_allclose(combined, separate, atol=1e-8)


class TestNumericalEdges:
    @settings(max_examples=15, deadline=None)
    @given(edge_models())
    def test_exact_and_sampled_values_hold_at_the_edges(self, model):
        for kind in (TRACE, MIN_EIG):
            exact = shapley_exact(model, kind)
            assert verify_axioms(exact).efficiency.passed
            sampled = shapley_sampled(model, kind, 10, seed=0)
            standalone = sampled.standalone_values.tobytes()
            assert standalone == exact.standalone_values.tobytes()


class TestShapleyFromTable:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coalition values"):
            shapley_from_table(np.zeros(7), 3)

    def test_hand_worked_three_player_game(self):
        # v({0})=1, v({1})=2, v({0,1})=4: each player gets its standalone
        # value plus half the 1-unit surplus
        values = np.array([0.0, 1.0, 2.0, 4.0])
        phi = shapley_from_table(values, 2)
        np.testing.assert_allclose(phi, [1.5, 2.5])

    @pytest.mark.parametrize("p", range(1, 17))
    def test_matches_the_mask_filter_form(self, p):
        # tables over six decades of magnitude, one scale per coalition
        rng = np.random.default_rng(600 + p)
        scale = 10.0 ** rng.uniform(-6, 6, 1 << p)
        values = rng.standard_normal(1 << p) * scale
        values[0] = 0.0
        got = shapley_from_table(values, p)
        assert got.tobytes() == shapley_from_table_oracle(values, p).tobytes()

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS reads its thread count when it loads, so each count needs
        # a fresh interpreter; a dot of 2^15 values at p = 16 is threaded
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(path)
            child = subprocess.run(
                [sys.executable, "-c", THREADED_CHILD],
                env=env,
                capture_output=True,
                text=True,
            )
            assert child.returncode == 0, child.stderr
            printed.append(child.stdout)
        assert printed[0] == printed[1]

    def test_working_memory_is_at_most_one_and_a_half_tables(self):
        # at p = 20 the table is 8 MiB; the contraction may allocate at most
        # 1.5 times that on top of it
        p = 20
        values = np.random.default_rng(20).standard_normal(1 << p)
        tracemalloc.start()
        try:
            shapley_from_table(values, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * values.nbytes


# Prints the bytes of shapley_from_table on a seeded p = 16 table, in hex.
THREADED_CHILD = """
import numpy as np
from sensor_shapley.shapley import shapley_from_table
values = np.random.default_rng(16).standard_normal(1 << 16)
values[0] = 0.0
print(shapley_from_table(values, 16).tobytes().hex())
"""


def shapley_from_table_oracle(values, p):
    """The mask-filter form of ``shapley_from_table``: each sensor filters
    all 2^p masks for the coalitions without it, and adds the dot products
    of ascending pieces of 2^13 of them left to right."""
    weights = np.array([1.0 / (p * math.comb(p - 1, s)) for s in range(p)])
    masks = np.arange(1 << p, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    phi = np.empty(p)
    piece = 1 << 13
    for i in range(p):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        weighted = weights[sizes[without]]
        marginals = values[without | bit] - values[without]
        dots = [
            np.dot(weighted[start : start + piece], marginals[start : start + piece])
            for start in range(0, len(without), piece)
        ]
        phi[i] = functools.reduce(operator.add, dots)
    return phi
