import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from sensor_shapley import (
    Coalition,
    Gramian,
    LtiModel,
    Sensor,
    coalition_gramians,
    full_coalition,
    gramian_direct,
    is_observable,
    observability_matrix,
    pack_masks,
    per_sensor_gramians,
    symmetric_eigenvalues,
)

from conftest import gramian_corpus, lti_models, make_random_model


def all_nonempty_coalitions(p):
    return [Coalition.from_bitmask(m) for m in range(1, 1 << p)]


def coalition_gramian(bank, coalition):
    return coalition_gramians(bank, np.array([coalition.bitmask]))[0]


class TestObservabilityMatrix:
    def test_static_dynamics_repeat_blocks(self, scenario1_model):
        model = LtiModel(
            scenario1_model.state_matrix, scenario1_model.sensors, 2
        )
        got = observability_matrix(model, Coalition((0, 1)))
        expected = [[1, 1], [1, -1], [1, 1], [1, -1]]
        np.testing.assert_array_equal(got, expected)

    def test_chain_dynamics_single_sensor(self, scenario2_model):
        # first-state sensor over 3 samples of the shift-coupled chain:
        # rows picked up by hand-multiplying the state matrix twice
        model = LtiModel(
            scenario2_model.state_matrix, scenario2_model.sensors, 3
        )
        got = observability_matrix(model, Coalition((0,)))
        np.testing.assert_array_equal(got, [[1, 0, 0], [1, 1, 0], [1, 2, 1]])

    def test_single_sample_is_the_row_itself(self, scenario2_model):
        model = LtiModel(
            scenario2_model.state_matrix, scenario2_model.sensors, 1
        )
        got = observability_matrix(model, Coalition((2,)))
        np.testing.assert_array_equal(got, [[1, 1, 0]])

    def test_row_count(self, scenario2_model):
        got = observability_matrix(scenario2_model, Coalition((0, 3)))
        assert got.shape == (10 * 2, 3)
        assert not got.flags.writeable

    def test_empty_coalition_rejected(self, scenario1_model):
        with pytest.raises(ValueError, match="empty coalition"):
            observability_matrix(scenario1_model, Coalition(()))

    def test_out_of_range_sensor_rejected(self, scenario1_model):
        with pytest.raises(ValueError, match="sensor index"):
            observability_matrix(scenario1_model, Coalition((5,)))


class TestGramianDirect:
    def test_static_dynamics_scale_with_horizon(self, scenario1_model):
        got = gramian_direct(scenario1_model, Coalition((0,)))
        np.testing.assert_allclose(got.entries, 10.0 * np.array([[1, 1], [1, 1]]))

    def test_last_state_sensor(self, scenario2_model):
        got = gramian_direct(scenario2_model, Coalition((3,)))
        np.testing.assert_allclose(got.entries, np.diag([0.0, 0.0, 10.0]))
        assert np.trace(got.entries) == pytest.approx(10.0)

    def test_single_sample_is_outer_product(self, scenario2_model):
        model = LtiModel(
            scenario2_model.state_matrix, scenario2_model.sensors, 1
        )
        got = gramian_direct(model, Coalition((0, 2)))
        rows = np.array([[1.0, 0, 0], [1.0, 1, 0]])
        np.testing.assert_allclose(got.entries, rows.T @ rows)

    def test_empty_coalition_rejected(self, scenario1_model):
        with pytest.raises(ValueError, match="empty coalition"):
            gramian_direct(scenario1_model, Coalition(()))


class TestPerSensorGramians:
    def test_four_sensor_traces(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        traces = np.trace(bank, axis1=1, axis2=2)
        np.testing.assert_allclose(traces, [3187.0, 295.0, 5312.0, 10.0])

    def test_two_sensor_traces(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        traces = np.trace(bank, axis1=1, axis2=2)
        np.testing.assert_allclose(traces, [20.0, 20.0])

    def test_single_sensor_bank_equals_full_gramian(self):
        model = LtiModel([[0.5]], (Sensor("a", [2.0]),), 4)
        bank = per_sensor_gramians(model)
        assert bank.shape == (1, 1, 1)
        full = gramian_direct(model, full_coalition(model))
        np.testing.assert_array_equal(bank[0], full.entries)

    def test_members_equal_direct_gramians_exactly(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        assert not bank.flags.writeable
        for i in range(4):
            direct = gramian_direct(scenario2_model, Coalition((i,)))
            np.testing.assert_array_equal(bank[i], direct.entries)

    def test_overflowing_dynamics_name_sensor_and_horizon(self):
        # the powers of A overflow, so even the first sensor's Gramian does
        sensors = (Sensor("x1", [1.0, 0.0]), Sensor("x2", [0.0, 1.0]))
        model = LtiModel(np.diag([3.0, 0.5]), sensors, 800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sensor 'x1' .* 800 samples"):
                per_sensor_gramians(model)


class TestCoalitionGramian:
    def test_pair_sum(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        got = coalition_gramian(bank, Coalition((0, 1)))
        np.testing.assert_allclose(got, 10.0 * np.array([[2, 0], [0, 2]]))

    def test_empty_coalition_is_zero_matrix(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        got = coalition_gramian(bank, Coalition(()))
        np.testing.assert_array_equal(got, np.zeros((2, 2)))

    def test_singleton_equals_bank_entry_exactly(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        for i in range(4):
            got = coalition_gramian(bank, Coalition((i,)))
            np.testing.assert_array_equal(got, bank[i])

    def test_out_of_range_rejected(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        with pytest.raises(ValueError, match="sensor index"):
            coalition_gramian(bank, Coalition((7,)))
        with pytest.raises(ValueError, match="sensor index 70"):
            coalition_gramians(bank, pack_masks(np.eye(71, dtype=bool)[70:]))

    def test_batch_matches_ascending_member_sums_bit_for_bit(self):
        for model in gramian_corpus(20, seed=4242):
            bank = per_sensor_gramians(model)
            p = model.sensor_count
            stack = coalition_gramians(bank, np.arange(1 << p))
            for mask in range(1 << p):
                acc = np.zeros(bank.shape[1:])
                for i in range(p):
                    if mask >> i & 1:
                        acc += bank[i]
                assert stack[mask].tobytes() == acc.tobytes()

    def test_packed_words_match_integer_masks(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        masks = np.arange(16)
        members = (masks[:, None] >> np.arange(4)) & 1
        words = pack_masks(members)
        assert words.shape == (16, 1) and words.dtype == np.uint64
        np.testing.assert_array_equal(words[:, 0], masks)
        np.testing.assert_array_equal(
            coalition_gramians(bank, words), coalition_gramians(bank, masks)
        )

    def test_packed_words_beyond_64_sensors(self):
        members = np.zeros((2, 70), dtype=bool)
        members[0, [0, 69]] = True
        members[1, 64] = True
        words = pack_masks(members)
        assert words.shape == (2, 2)
        assert words.tolist() == [[1, 1 << 5], [0, 1]]


class TestGramianType:
    def test_rejects_asymmetric_entries(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Gramian(np.array([[1.0, 2.0], [0.0, 1.0]]), Coalition((0,)))

    def test_rejects_indefinite_entries(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            Gramian(np.array([[-1.0, 0.0], [0.0, 1.0]]), Coalition((0,)))

    def test_symmetrizes_fp_drift(self):
        drift = 1e-14
        m = np.array([[1.0, 0.5 + drift], [0.5 - drift, 1.0]])
        g = Gramian(m, Coalition((0,)))
        np.testing.assert_array_equal(g.entries, g.entries.T)

    def test_entries_read_only(self, scenario1_model):
        g = gramian_direct(scenario1_model, Coalition((0,)))
        with pytest.raises(ValueError):
            g.entries[0, 0] = 5.0


class TestSymmetricEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(
            symmetric_eigenvalues(np.diag([2.0, 3.0])), [2.0, 3.0]
        )

    def test_rank_one(self):
        # rank-1 matrix: eigenvalues are 0 and the trace
        got = symmetric_eigenvalues(10.0 * np.ones((2, 2)))
        np.testing.assert_allclose(got, [0.0, 20.0], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(
            symmetric_eigenvalues(np.zeros((3, 3))), [0.0, 0.0, 0.0]
        )

    def test_ascending_order(self):
        got = symmetric_eigenvalues(np.diag([5.0, -1.0, 3.0]))
        np.testing.assert_allclose(got, [-1.0, 3.0, 5.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_recovers_spectrum_of_known_decomposition(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            d = np.sort(rng.uniform(-5.0, 5.0, size=n))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            got = symmetric_eigenvalues(q @ np.diag(d) @ q.T)
            np.testing.assert_allclose(got, d, atol=1e-8)


class TestGramianIdentities:
    @settings(max_examples=60, deadline=None)
    @given(lti_models(max_states=4, max_sensors=4, max_horizon=8))
    def test_direct_equals_stacked_product(self, model):
        for coalition in all_nonempty_coalitions(model.sensor_count):
            direct = gramian_direct(model, coalition).entries
            stacked = observability_matrix(model, coalition)
            np.testing.assert_allclose(
                direct, stacked.T @ stacked, rtol=1e-9, atol=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(lti_models(max_states=4, max_sensors=4, max_horizon=8))
    def test_bank_sum_equals_direct(self, model):
        bank = per_sensor_gramians(model)
        full = full_coalition(model)
        direct = gramian_direct(model, full).entries
        summed = coalition_gramian(bank, full)
        scale = max(1e-30, float(np.max(np.abs(direct))))
        np.testing.assert_allclose(summed, direct, rtol=1e-10, atol=1e-10 * scale)

    def test_every_gramian_is_psd(self):
        for model in gramian_corpus(40, seed=77001):
            bank = per_sensor_gramians(model)
            p = model.sensor_count
            eigs = np.linalg.eigvalsh(coalition_gramians(bank, np.arange(1, 1 << p)))
            assert np.all(
                eigs[:, 0] >= -1e-9 * np.maximum(abs(eigs[:, 0]), abs(eigs[:, -1]))
            )

    def test_adding_a_sensor_never_decreases_trace_or_min_eigenvalue(self):
        # moderate scale keeps eigensolver noise far below the 1e-10 slack
        rng = np.random.default_rng(90210)
        for _ in range(40):
            model = make_random_model(
                rng, max_states=4, max_sensors=5, max_horizon=6, scale=1.0
            )
            bank = per_sensor_gramians(model)
            p = model.sensor_count
            stack = coalition_gramians(bank, np.arange(1 << p))
            smallest = np.linalg.eigvalsh(stack)[:, 0]
            traces = np.trace(stack, axis1=1, axis2=2)
            for mask in range(1 << p):
                for i in range(p):
                    if mask >> i & 1:
                        continue
                    after = mask | (1 << i)
                    assert smallest[after] >= smallest[mask] - 1e-10
                    assert traces[after] >= traces[mask] - 1e-10


class TestIsObservable:
    def test_full_coalition_observable(self, scenario1_model):
        g = gramian_direct(scenario1_model, full_coalition(scenario1_model))
        assert is_observable(g.entries) is True

    def test_single_sensor_not_observable(self, scenario1_model):
        g = gramian_direct(scenario1_model, Coalition((0,)))
        assert is_observable(g.entries) is False

    def test_zero_gramian_not_observable(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        g = coalition_gramian(bank, Coalition(()))
        assert not is_observable(g)

    def test_stack_gives_one_verdict_per_gramian(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        verdicts = is_observable(coalition_gramians(bank, np.array([15, 1, 2, 4, 8])))
        assert verdicts.tolist() == [True, True, False, True, False]

    def test_explicit_tolerance(self, scenario1_model):
        g = gramian_direct(scenario1_model, full_coalition(scenario1_model)).entries
        assert is_observable(g, tol=1.0)
        assert not is_observable(g, tol=25.0)
        with pytest.raises(ValueError, match="positive"):
            is_observable(g, tol=0.0)
