import numpy as np
import pytest

from sensor_shapley import (
    LtiModel,
    Sensor,
    ValueFunctionKind,
    pack_masks,
    per_sensor_gramians,
    shapley_exact,
    shapley_sampled,
)
from sensor_shapley.shapley import _unique_rows

from conftest import make_random_model

TRACE = ValueFunctionKind.TRACE
MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


class TestDeterminism:
    def test_same_seed_bit_identical(self, scenario2_model):
        a = shapley_sampled(scenario2_model, MIN_EIG, 500, seed=11)
        b = shapley_sampled(scenario2_model, MIN_EIG, 500, seed=11)
        assert a.shapley_values.tobytes() == b.shapley_values.tobytes()
        assert a.grand_value == b.grand_value
        assert a.efficiency_residual == b.efficiency_residual

    def test_different_seeds_differ(self, scenario2_model):
        a = shapley_sampled(scenario2_model, MIN_EIG, 500, seed=11)
        b = shapley_sampled(scenario2_model, MIN_EIG, 500, seed=12)
        assert not np.array_equal(a.shapley_values, b.shapley_values)

    def test_method_metadata_recorded(self, scenario2_model):
        result = shapley_sampled(scenario2_model, MIN_EIG, 123, seed=9)
        assert result.method.kind == "permutation-sampling"
        assert result.method.num_permutations == 123
        assert result.method.seed == 9


class TestEstimates:
    def test_close_to_exact_on_four_sensors(self, scenario2_model):
        exact = shapley_exact(scenario2_model, MIN_EIG).shapley_values
        sampled = shapley_sampled(scenario2_model, MIN_EIG, 20_000, seed=2)
        np.testing.assert_allclose(sampled.shapley_values, exact, atol=5e-2)

    def test_estimates_sum_to_grand_value(self, scenario2_model):
        for seed in range(5):
            result = shapley_sampled(scenario2_model, MIN_EIG, 200, seed=seed)
            assert result.efficiency_residual <= 1e-9 * max(
                1.0, abs(result.grand_value)
            )

    def test_single_sensor_is_its_own_value(self):
        model = LtiModel([[2.0]], (Sensor("a", [1.0]),), 3)
        result = shapley_sampled(model, TRACE, 4, seed=0)
        np.testing.assert_allclose(result.shapley_values, [21.0])
        assert result.standalone_values[0] == pytest.approx(21.0)

    def test_zero_permutations_rejected(self, scenario2_model):
        with pytest.raises(ValueError, match="positive"):
            shapley_sampled(scenario2_model, MIN_EIG, 0, seed=0)

    def test_trace_estimates_match_exact_shape(self, scenario2_model):
        exact = shapley_exact(scenario2_model, TRACE).shapley_values
        sampled = shapley_sampled(scenario2_model, TRACE, 2_000, seed=4)
        # the trace game is additive, so every ordering yields the same
        # marginal and sampling is exact regardless of sample count
        np.testing.assert_allclose(sampled.shapley_values, exact, rtol=1e-12)

    def test_lands_within_three_standard_errors(self):
        # across-seed spread estimates the per-run standard error; nearly all
        # runs should sit within three of them from the exact values
        rng = np.random.default_rng(555)
        model = None
        while model is None or model.sensor_count != 5:
            model = make_random_model(
                rng, max_states=4, max_sensors=5, max_horizon=6, scale=1.0
            )
        exact = shapley_exact(model, MIN_EIG).shapley_values
        runs = np.array(
            [
                shapley_sampled(model, MIN_EIG, 50_000, seed=s).shapley_values
                for s in range(20)
            ]
        )
        stderr = np.maximum(runs.std(axis=0, ddof=1), 1e-12)
        within = np.abs(runs - exact) <= 3.0 * stderr
        per_run_ok = within.all(axis=1)
        assert per_run_ok.sum() >= 19


def reference_sampled_min_eig(model, num_permutations, seed):
    """Permutation sampling one ordering and one coalition at a time:
    successive rng.permutation(p) draws, and each prefix valued by eigvalsh
    of its members' bank entries summed in ascending sensor index."""
    bank = per_sensor_gramians(model)
    p = model.sensor_count
    rng = np.random.default_rng(seed)

    def value(members):
        acc = np.zeros(bank.shape[1:])
        for i in sorted(members):
            acc += bank[i]
        smallest = np.linalg.eigvalsh(acc)[0]
        return smallest if smallest >= 0.0 else 0.0

    totals = np.zeros(p)
    for _ in range(num_permutations):
        members, previous = [], 0.0
        for i in rng.permutation(p):
            members.append(int(i))
            current = value(members)
            totals[i] += current - previous
            previous = current
    standalone = [value([i]) for i in range(p)]
    return totals / num_permutations, standalone, value(range(p))


class TestWideSensorSets:
    def test_seventy_sensors_match_reference_loop_bit_for_bit(self):
        # more sensors than one 64-bit mask word holds
        rng = np.random.default_rng(70)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rows = [rng.uniform(-1.0, 1.0, 4) for _ in range(70)]
        rows[65] = np.zeros(4)
        model = LtiModel(q, tuple(Sensor(f"s{i}", r) for i, r in enumerate(rows)), 5)
        result = shapley_sampled(model, MIN_EIG, 12, seed=3)
        phi, standalone, grand = reference_sampled_min_eig(model, 12, seed=3)
        assert result.shapley_values.tobytes() == phi.tobytes()
        assert result.standalone_values.tobytes() == np.array(standalone).tobytes()
        assert result.grand_value == grand

    def test_orderings_equal_successive_permutation_calls(self):
        for p in (5, 40, 70, 100):
            batched = np.random.default_rng(p).permuted(
                np.tile(np.arange(p, dtype=np.int64), (30, 1)), axis=1
            )
            rng = np.random.default_rng(p)
            successive = np.array([rng.permutation(p) for _ in range(30)])
            np.testing.assert_array_equal(batched, successive)


class TestUniqueRows:
    @pytest.mark.parametrize("p, count", [(4, 50000), (40, 3000), (70, 3000)])
    def test_matches_numpy_unique_rows(self, p, count):
        # p = 4 and 40 fit one mask word, p = 70 needs two; rows drawn from
        # a smaller pool repeat, and half the pool shares its first word
        rng = np.random.default_rng(p)
        pool = rng.random((count // 4, p)) < rng.uniform(0.05, 0.95, (count // 4, 1))
        pool[::2, :64] = pool[0, :64]
        words = pack_masks(pool[rng.integers(0, len(pool), count)])
        rows, inverse = _unique_rows(words)
        want_rows, want_inverse = np.unique(words, axis=0, return_inverse=True)
        assert words.shape[1] == (1 if p <= 64 else 2)
        assert rows.tobytes() == want_rows.tobytes()
        assert inverse.tobytes() == want_inverse.ravel().astype(np.intp).tobytes()
        assert len(rows) < count
