import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from sensor_shapley import (
    LtiModel,
    Sensor,
    coalition_gramians,
    gramian_direct,
    is_observable,
    observability_matrix,
    pack_masks,
    per_sensor_gramians,
)
from sensor_shapley import gramian

from conftest import gramian_corpus, lti_models, make_random_model


def full_mask(model):
    return (1 << model.sensor_count) - 1


def coalition_gramian(bank, mask):
    return coalition_gramians(bank, np.array([mask]))[0]


class TestObservabilityMatrix:
    def test_static_dynamics_repeat_blocks(self, scenario1_model):
        model = LtiModel(
            scenario1_model.state_matrix, scenario1_model.sensors, 2
        )
        got = observability_matrix(model, 0b11)
        expected = [[1, 1], [1, -1], [1, 1], [1, -1]]
        np.testing.assert_array_equal(got, expected)

    def test_chain_dynamics_single_sensor(self, scenario2_model):
        # first-state sensor over 3 samples of the shift-coupled chain:
        # rows picked up by hand-multiplying the state matrix twice
        model = LtiModel(
            scenario2_model.state_matrix, scenario2_model.sensors, 3
        )
        got = observability_matrix(model, 1)
        np.testing.assert_array_equal(got, [[1, 0, 0], [1, 1, 0], [1, 2, 1]])

    def test_single_sample_is_the_row_itself(self, scenario2_model):
        model = LtiModel(
            scenario2_model.state_matrix, scenario2_model.sensors, 1
        )
        got = observability_matrix(model, 4)
        np.testing.assert_array_equal(got, [[1, 1, 0]])

    def test_row_count(self, scenario2_model):
        got = observability_matrix(scenario2_model, 0b1001)
        assert got.shape == (10 * 2, 3)
        assert not got.flags.writeable

    def test_empty_coalition_rejected(self, scenario1_model):
        with pytest.raises(ValueError, match="empty coalition"):
            observability_matrix(scenario1_model, 0)

    def test_out_of_range_sensor_rejected(self, scenario1_model):
        with pytest.raises(ValueError, match="sensor index"):
            observability_matrix(scenario1_model, 32)


class TestGramianDirect:
    def test_static_dynamics_scale_with_horizon(self, scenario1_model):
        got = gramian_direct(scenario1_model, 1)
        np.testing.assert_allclose(got, 10.0 * np.array([[1, 1], [1, 1]]))

    def test_last_state_sensor(self, scenario2_model):
        got = gramian_direct(scenario2_model, 8)
        np.testing.assert_allclose(got, np.diag([0.0, 0.0, 10.0]))
        assert np.trace(got) == pytest.approx(10.0)

    def test_single_sample_is_outer_product(self, scenario2_model):
        model = LtiModel(
            scenario2_model.state_matrix, scenario2_model.sensors, 1
        )
        got = gramian_direct(model, 0b101)
        rows = np.array([[1.0, 0, 0], [1.0, 1, 0]])
        np.testing.assert_allclose(got, rows.T @ rows)

    def test_empty_coalition_rejected(self, scenario1_model):
        with pytest.raises(ValueError, match="empty coalition"):
            gramian_direct(scenario1_model, 0)

    def test_mask_must_be_a_non_negative_integer(self, scenario1_model):
        for bad in (1.0, True, "1", None):
            with pytest.raises(ValueError, match="must be an integer"):
                gramian_direct(scenario1_model, bad)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            gramian_direct(scenario1_model, -1)
        np.testing.assert_array_equal(
            gramian_direct(scenario1_model, np.int64(3)),
            gramian_direct(scenario1_model, 3),
        )

    def test_out_of_range_error_names_the_coalition(self, scenario1_model):
        expected = r"coalition \{0, 5\} references sensor index 5 but only 2"
        with pytest.raises(ValueError, match=expected):
            gramian_direct(scenario1_model, 0b100001)


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
        full = gramian_direct(model, full_mask(model))
        np.testing.assert_array_equal(bank[0], full)

    def test_members_equal_direct_gramians_exactly(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        assert not bank.flags.writeable
        for i in range(4):
            direct = gramian_direct(scenario2_model, 1 << i)
            np.testing.assert_array_equal(bank[i], direct)

    def test_members_equal_direct_gramians_bit_for_bit_on_wide_corpus(self):
        for model in wide_bank_corpus(80):
            bank = per_sensor_gramians(model)
            for i in range(model.sensor_count):
                direct = gramian_direct(model, 1 << i)
                assert np.array_equal(
                    bank[i].view(np.uint64), direct.view(np.uint64)
                ), (model.state_dimension, model.sensor_count, i)

    def test_members_checked_with_one_eigen_solve(self, scenario2_model, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        per_sensor_gramians(scenario2_model)
        assert calls == [(4, 3, 3)]

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
        got = coalition_gramian(bank, 0b11)
        np.testing.assert_allclose(got, 10.0 * np.array([[2, 0], [0, 2]]))

    def test_empty_coalition_is_zero_matrix(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        got = coalition_gramian(bank, 0)
        np.testing.assert_array_equal(got, np.zeros((2, 2)))

    def test_singleton_equals_bank_entry_exactly(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        for i in range(4):
            got = coalition_gramian(bank, 1 << i)
            np.testing.assert_array_equal(got, bank[i])

    def test_out_of_range_rejected(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        with pytest.raises(ValueError, match="sensor index"):
            coalition_gramian(bank, 128)
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

    def test_full_gramian_matches_the_all_members_mask_bit_for_bit(self):
        banks = [per_sensor_gramians(m) for m in gramian_corpus(20, seed=4343)]
        banks.append(np.array([[[1e308]], [[1e308]], [[-np.inf]]]))  # inf, nan
        for bank in banks:
            full = pack_masks(np.ones((1, len(bank)), dtype=bool))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = gramian.full_gramian(bank)
            assert got.tobytes() == coalition_gramians(bank, full)[0].tobytes()

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
    """The one stacked check every bank member and direct Gramian passes."""

    def test_rejects_asymmetric_entries(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
        expected = (
            r"Gramian is not symmetric within tolerance "
            r"\(max asymmetry 2\.000e\+00, max entry 2\.000e\+00\)"
        )
        with pytest.raises(ValueError, match=expected):
            gramian._checked_gramians(stack, [1, 2])

    def test_rejects_indefinite_entries(self):
        stack = np.array([np.eye(2), np.diag([-1.0, 1.0])])
        expected = (
            r"Gramian for coalition \{0, 2\} is not positive semidefinite "
            r"\(minimum eigenvalue -1\.000000e\+00\)"
        )
        with pytest.raises(ValueError, match=expected):
            gramian._checked_gramians(stack, [0b10, 0b101])

    def test_rejects_non_finite_entries(self):
        stack = np.array([np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]])
        with pytest.raises(ValueError, match="Gramian contains non-finite entries"):
            gramian._checked_gramians(stack, [1, 2])

    def test_symmetrizes_fp_drift(self):
        drift = 1e-14
        m = np.array([[1.0, 0.5 + drift], [0.5 - drift, 1.0]])
        got = gramian._checked_gramians(np.array([m, m.T]), [1, 2])
        np.testing.assert_array_equal(got, np.swapaxes(got, 1, 2))
        np.testing.assert_array_equal(got[0], (m + m.T) / 2.0)

    def test_entries_read_only(self, scenario1_model):
        for g in (
            gramian_direct(scenario1_model, 1),
            per_sensor_gramians(scenario1_model),
            gramian._checked_gramians(np.array([np.eye(2)]), [1]),
        ):
            with pytest.raises(ValueError):
                g[0, 0] = 5.0


class TestGramianIdentities:
    @settings(max_examples=60, deadline=None)
    @given(lti_models(max_states=4, max_sensors=4, max_horizon=8))
    def test_direct_equals_stacked_product(self, model):
        for mask in range(1, 1 << model.sensor_count):
            direct = gramian_direct(model, mask)
            stacked = observability_matrix(model, mask)
            np.testing.assert_allclose(
                direct, stacked.T @ stacked, rtol=1e-9, atol=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(lti_models(max_states=4, max_sensors=4, max_horizon=8))
    def test_bank_sum_equals_direct(self, model):
        bank = per_sensor_gramians(model)
        full = full_mask(model)
        direct = gramian_direct(model, full)
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
        g = gramian_direct(scenario1_model, full_mask(scenario1_model))
        assert is_observable(g) is True

    def test_single_sensor_not_observable(self, scenario1_model):
        g = gramian_direct(scenario1_model, 1)
        assert is_observable(g) is False

    def test_zero_gramian_not_observable(self, scenario1_model):
        bank = per_sensor_gramians(scenario1_model)
        g = coalition_gramian(bank, 0)
        assert not is_observable(g)

    def test_stack_gives_one_verdict_per_gramian(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        verdicts = is_observable(coalition_gramians(bank, np.array([15, 1, 2, 4, 8])))
        assert verdicts.tolist() == [True, True, False, True, False]

    def test_explicit_tolerance(self, scenario1_model):
        g = gramian_direct(scenario1_model, full_mask(scenario1_model))
        assert is_observable(g, tol=1.0)
        assert not is_observable(g, tol=25.0)
        with pytest.raises(ValueError, match="positive"):
            is_observable(g, tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance_rejected(self, scenario1_model, tol):
        g = gramian_direct(scenario1_model, full_mask(scenario1_model))
        with pytest.raises(ValueError, match="positive and finite"):
            is_observable(g, tol=tol)
