import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from sensor_shapley import (
    LtiModel,
    Sensor,
    ValueFunctionKind,
    coalition_values,
    is_observable,
    pack_masks,
    per_sensor_gramians,
    shapley_exact,
)
from sensor_shapley import gramian, metrics
from sensor_shapley.shapley import _observability_matrix as observability_matrix

from conftest import (
    ascending_sums,
    block_models,
    coalition_gramian,
    coalition_gramians,
    edge_models,
    eigen_solves,
    einsum_shapes,
    gramian_corpus,
    load_script,
    lti_models,
    make_random_model,
    traced_peak,
    wide_bank_corpus,
)
from oracles import gramian_direct, gramian_propagated


def full_mask(model):
    return (1 << model.sensor_count) - 1


def orthogonal_model(p, n, h, seed=60603):
    rng = np.random.default_rng(seed)
    state = np.linalg.qr(rng.standard_normal((n, n)))[0]
    rows = rng.standard_normal((p, n))
    return LtiModel(state, tuple(Sensor(f"s{i}", r) for i, r in enumerate(rows)), h)


def long_window_models(seed=60602):
    """Two shapes beyond ``wide_bank_corpus``: an orthogonal A of 2x2
    rotations with n = 24, p = 8, h = 1000, whose rows have whole rotation
    planes at exact zero (so every sample's outer product meets -0.0); and a
    stable n = 6, p = 40, h = 10 model with a quarter of its row entries
    zero."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2 * np.pi, 12)
    cos, sin = np.cos(angles), np.sin(angles)
    rotations = np.zeros((24, 24))
    for j in range(12):
        rotations[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [
            [cos[j], -sin[j]],
            [sin[j], cos[j]],
        ]
    planes = rng.random((8, 12)) >= 0.25
    rows = rng.standard_normal((8, 24)) * np.repeat(planes, 2, axis=1)
    shapes = [(rotations, rows, 1000)]
    state = rng.standard_normal((6, 6))
    state *= 0.9 / max(abs(np.linalg.eigvals(state)))
    rows = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-3, 3, (40, 6))
    rows[rng.random((40, 6)) < 0.25] = 0.0
    shapes.append((state, rows, 10))
    return [
        LtiModel(state, tuple(Sensor(f"s{i}", r) for i, r in enumerate(rows)), h)
        for state, rows, h in shapes
    ]


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
        for model in wide_bank_corpus(80) + long_window_models() + block_models(20):
            bank = per_sensor_gramians(model)
            for i in range(model.sensor_count):
                direct = gramian_direct(model, 1 << i)
                assert np.array_equal(
                    bank[i].view(np.uint64), direct.view(np.uint64)
                ), (model.state_dimension, model.sensor_count, i)

    @settings(max_examples=100, deadline=None)
    @given(edge_models())
    def test_members_equal_direct_gramians_bit_for_bit_on_edge_models(self, model):
        # orthogonal A up to h = 1000, near-duplicate rows and rows over
        # 1e-6..1e6: draws the wide corpus (stable A, h < 300) does not make
        bank = per_sensor_gramians(model)
        for i in range(model.sensor_count):
            direct = gramian_direct(model, 1 << i)
            assert np.array_equal(bank[i].view(np.uint64), direct.view(np.uint64)), i

    def test_members_checked_with_one_eigen_solve(self, scenario2_model, monkeypatch):
        calls = eigen_solves(monkeypatch)
        per_sensor_gramians(scenario2_model)
        # none: the min-eig metric and the verdicts solve the members where
        # they read their eigenvalues, under the same PSD rule
        assert calls == []

    def test_overflowing_dynamics_name_sensor_and_horizon(self):
        # the powers of A overflow and spread NaN into every slot; the error
        # names the sensor that sees the unstable mode, in either order, not
        # the blind one whose outputs decay
        seeing, blind = Sensor("x1", [1.0, 0.0]), Sensor("x2", [0.0, 1.0])
        for sensors in ((seeing, blind), (blind, seeing)):
            model = LtiModel(np.diag([3.0, 0.5]), sensors, 800)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="sensor 'x1' .* 800 samples"):
                    per_sensor_gramians(model)

    def test_rebuilt_slots_equal_propagated_rows_bit_for_bit(self):
        # 3^k overflows the power chain, so inf * 0 leaves every slot NaN,
        # although no sensor sees the growing mode; each slot is rebuilt
        # from its own row
        rows = ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0])
        sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
        model = LtiModel(np.diag([3.0, 0.5, 0.25]), sensors, 800)
        bank = per_sensor_gramians(model)
        for i in range(model.sensor_count):
            assert not np.all(np.isfinite(gramian_direct(model, 1 << i)))
            rebuilt = gramian_propagated(model, i)
            assert np.array_equal(bank[i].view(np.uint64), rebuilt.view(np.uint64)), i

    def test_blind_sensors_beside_a_block_overflowing_at_the_last_sample(self):
        # 3^k first overflows the power chain at k = 647: at h = 648 only the
        # last sample's outputs outside the sensors' reach are NaN (0 * inf),
        # yet each slot is rebuilt from its row, as when the whole slot is
        # non-finite; the reached products alone have other bits
        turn = 0.9 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        state = np.zeros((5, 5))
        state[0, 0], state[1:3, 1:3], state[3:, 3:] = 3.0, turn, turn.T
        rows = np.array([[0.0, 1.3, -0.7, 0.0, 0.0], [0.0, 0.0, 0.0, 0.4, 2.1]])
        sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
        reached, sums, power = np.zeros((2, 5, 5)), {}, np.eye(5)
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(1, 649):
                outputs = np.where(rows != 0, (rows[:, None] @ power)[:, 0], 0.0)
                reached += outputs[:, :, None] * outputs[:, None, :]
                if h >= 647:
                    sums[h] = reached.copy()
                power = power @ state
        for h in (647, 648):
            model = LtiModel(state, sensors, h)
            bank = per_sensor_gramians(model)
            for i in range(2):
                if h == 647:
                    want = gramian_direct(model, 1 << i)
                    assert bank[i].tobytes() == sums[h][i].tobytes(), i
                else:
                    want = gramian_propagated(model, i)
                    assert bank[i].tobytes() != sums[h][i].tobytes(), i
                assert np.array_equal(bank[i].view(np.uint64), want.view(np.uint64))

    def test_dense_bank_rebuilds_sensors_whose_slots_end_non_finite(self):
        # "tiny" reaches both states, so the slots are the bank itself, with
        # no output screen. 3^k first overflows the power chain at k = 647:
        # by h = 650 its inf and inf * 0 = NaN reach both sensors' outputs,
        # so both sensors' slots end non-finite, and each is rebuilt from its
        # row, whose outputs stay finite
        sensors = (Sensor("tiny", [1e-160, 1.0]), Sensor("blind", [0.0, 1.0]))
        for h in (647, 650):
            model = LtiModel(np.diag([3.0, 0.5]), sensors, h)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bank = per_sensor_gramians(model)
            for i in range(2):
                if h == 647:
                    want = gramian_direct(model, 1 << i)
                else:
                    assert not np.all(np.isfinite(gramian_direct(model, 1 << i)))
                    want = gramian_propagated(model, i)
                assert np.array_equal(bank[i].view(np.uint64), want.view(np.uint64))

    def test_samples_of_one_number_keep_the_ascending_sum_bit_for_bit(self):
        # one sensor on one state: a block's products are one number per
        # sample, which numpy would reduce pairwise, with other bits at both
        # windows, so such blocks add their samples one by one
        for h in (17, 300):
            model = LtiModel([[0.97]], (Sensor("a", [1.3]),), h)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bank = per_sensor_gramians(model)
            direct = gramian_direct(model, 1)
            assert np.array_equal(bank[0].view(np.uint64), direct.view(np.uint64)), h

    def test_outer_products_cover_only_the_reached_coordinates(self, monkeypatch):
        # every sensor of a block model reaches at most two 2x2 blocks, so
        # its outer products are 4 x 4, not n x n
        model = next(m for m in block_models(20) if m.state_dimension >= 12)
        shapes = einsum_shapes(monkeypatch)
        per_sensor_gramians(model)
        assert shapes and {s[2:] for s in shapes} == {(4, 4)}, model.state_dimension

    def test_block_model_bank_makes_one_einsum_per_block_of_70_samples(
        self, monkeypatch
    ):
        # a sample of the (8, 24, 1000) block model holds 928 numbers (see
        # bank_budgets), so 70 samples fill a block and all 8 sensors one
        # group: 15 einsum calls, where n x n sizing made 72 of 14 samples
        model = load_script("time_passes").block_model(8, 24, 1000)
        shapes = einsum_shapes(monkeypatch)
        per_sensor_gramians(model)
        assert shapes == [(70, 8, 4, 4)] * 14 + [(20, 8, 4, 4)]

    def test_sensors_reaching_no_state_have_an_all_positive_zero_bank(self):
        # rows of +-0.0 reach no state (s = 0): no outer product is formed
        rows = ([0.0, 0.0, 0.0], [0.0, -0.0, 0.0])
        sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
        state = [[0.5, 1.0, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 0.7]]
        for h in (1, 50, 5000):
            bank = per_sensor_gramians(LtiModel(state, sensors, h))
            assert bank.tobytes() == bytes(bank.nbytes), h

    def test_working_memory_does_not_grow_with_the_horizon(self):
        # at p = 40, n = 24 one group holds every sensor, and the block's
        # powers, outputs and outer products share the budget: ten, a
        # thousand or ten thousand samples peak within the bank and the budget
        p, n = 40, 24
        per_sensor_gramians(orthogonal_model(p, n, 10))
        for h in (10, 1000, 10_000):
            peak = traced_peak(per_sensor_gramians, orthogonal_model(p, n, h))
            assert peak <= 8 * p * n * n + gramian._BANK_BYTES, h

    @pytest.mark.parametrize("n", [1, 24])
    def test_working_memory_of_small_samples_stays_within_the_budget(self, n):
        # a sample of n = 1 holds 17 numbers and one of the 24-state block
        # model 928, so a block is 3855 or 70 samples. Beyond the bank and
        # the budget, which those blocks fill to 8 and 4608 bytes, the peak
        # holds numpy's per-call objects and the bank's small arrays (rows,
        # reach, the identity): about 8 and 13 KiB. A list of 3855 power
        # views would add some 400 KiB at n = 1.
        model = orthogonal_model if n == 1 else load_script("time_passes").block_model
        per_sensor_gramians(model(8, n, 10))
        for h in (10, 1000, 10_000):
            peak = traced_peak(per_sensor_gramians, model(8, n, h))
            assert peak <= 8 * 8 * n * n + gramian._BANK_BYTES + (16 << 10), h

    def test_working_memory_above_the_byte_budget(self):
        # an 18.75 MiB bank, over gramian._BANK_BYTES: the outer products
        # are formed a group of sensors at a time, not in a bank-sized
        # buffer. A sample of 600 outputs and one group of 64 x 64 products
        # passes the budget alone, so a block of one sample is about 0.7 MiB
        # over; a p x n x n finiteness mask would add 2.3 MiB more.
        model = orthogonal_model(600, 64, 2)
        bank = per_sensor_gramians(model)
        assert bank.nbytes > gramian._BANK_BYTES
        peak = traced_peak(per_sensor_gramians, model)
        assert peak <= bank.nbytes + gramian._BANK_BYTES + (1 << 20)


def bank_budgets(model):
    """Bank byte budgets that make one call cover one sensor and one sample;
    blocks of all p sensors, of samples the last of which is shorter; blocks
    of all p sensors and the fewest samples summed by one reduction; groups
    of two sensors; and the default. A block holds, per sample, a power of A
    (n^2 numbers), the p outputs (p n), their reached part (p s, where the
    largest reach s is below n) and one group's outer products (g s^2)."""
    p, n, h = model.sensor_count, model.state_dimension, model.horizon_samples
    rows = np.array([sensor.row for sensor in model.sensors])
    s = gramian._reach(rows, model.state_matrix).shape[1]
    held = n * n + p * n + (p * s if s < n else 0) + p * s * s
    short_last = next(k for k in range(2, h + 2) if h % k)
    return {
        "one-by-one": 1,
        "short-last-block": short_last * 8 * held,
        "eight-then-three": gramian._REDUCED_SAMPLES * 8 * held,
        "sensor-groups": 2 * 8 * max(1, s * s),
        "default": gramian._BANK_BYTES,
    }


def assert_blocks_keep_the_bits(model):
    # every budget's bank equals the default one and gramian_direct's
    # members, as uint64
    default = per_sensor_gramians(model)
    for i in range(model.sensor_count):
        direct = gramian_direct(model, 1 << i)
        assert np.array_equal(default[i].view(np.uint64), direct.view(np.uint64)), i
    for name, budget in bank_budgets(model).items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gramian, "_BANK_BYTES", budget)
            bank = per_sensor_gramians(model)
        assert np.array_equal(bank.view(np.uint64), default.view(np.uint64)), name


class TestPowerChain:
    # The bank writes each power of A into its block as previous.dot(A,
    # out=...); the bits are those of the chain power <- power @ A.

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 64])
    @pytest.mark.parametrize("kind", ["random", "orthogonal"])
    def test_dot_into_the_block_equals_the_matmul_chain_bit_for_bit(self, n, kind):
        # n = 1 takes ndarray.dot's product of two scalars, not BLAS; blocks of 7
        # samples, each first power from the previous block's last, and a
        # one-sample block, whose out is its own input
        rng = np.random.default_rng(n)
        square = rng.standard_normal((n, n))
        if kind == "orthogonal":
            state = np.linalg.qr(square)[0]
        else:
            state = square / max(abs(np.linalg.eigvals(square)))
        chain, power = [], np.eye(n)
        for _ in range(300):
            chain.append(power)
            power = power @ state
        for samples in (7, 1):
            powers, got = np.empty((samples, n, n)), []
            powers[0] = np.eye(n)
            for start in range(0, 300, samples):
                k = min(samples, 300 - start)
                if start:
                    powers[-1].dot(state, out=powers[0])
                for before, after in itertools.pairwise(powers[:k]):
                    before.dot(state, out=after)
                got.extend(powers[:k].copy())
            assert np.array(got).tobytes() == np.array(chain).tobytes(), samples


class TestBankBlocks:
    # The bank's byte budget sets how many sensors and samples one call
    # covers; no budget may change a bit.

    @settings(max_examples=60, deadline=None)
    @given(edge_models())
    def test_block_size_cannot_change_the_bits_on_edge_models(self, model):
        assert_blocks_keep_the_bits(model)

    # (samples, sensors) of each einsum call, for 11 samples of 5 sensors
    LAYOUTS = {
        "one-by-one": [(1, 1)] * 55,
        "short-last-block": [(2, 5)] * 5 + [(1, 5)],
        # the first block is summed by one reduction, the last sample by sample
        "eight-then-three": [(8, 5), (3, 5)],
        "sensor-groups": [(1, 2), (1, 2), (1, 1)] * 11,
    }

    @pytest.mark.parametrize("block_model", [False, True])
    def test_budgets_make_the_layouts_they_are_named_for(self, block_model):
        # on a dense A (s = n = 4) and on a block model (s = 2 of n = 6)
        rng = np.random.default_rng(60605)
        if block_model:
            state = np.kron(np.eye(3), [[0.6, -0.8], [0.8, 0.6]])
            blocks = np.repeat(np.eye(3)[[0, 1, 2, 0, 1]], 2, axis=1)
            rows = rng.standard_normal((5, 6)) * blocks
        else:
            state = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            rows = rng.standard_normal((5, 4))
        sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
        model = LtiModel(state, sensors, 11)
        budgets = bank_budgets(model)
        for name, layout in self.LAYOUTS.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gramian, "_BANK_BYTES", budgets[name])
                shapes = einsum_shapes(patch)
                per_sensor_gramians(model)
            assert [shape[:2] for shape in shapes] == layout, name

    def test_block_size_cannot_change_the_bits_where_products_are_negative_zero(
        self,
    ):
        # two rotation planes and a decaying mode; the rows mix negative
        # entries and exact zeros, some on a whole plane, which A keeps zero,
        # so outer products hold -0.0 (asserted at k = 0) where einsum
        # writes +0.0
        rotations = [
            [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in (0.3, 1.1)
        ]
        state = np.zeros((5, 5))
        state[:2, :2], state[2:4, 2:4], state[4, 4] = *rotations, 0.9
        rows = [
            [0.0, 0.0, -1.5, 0.25, -2.0],
            [1.0, -0.5, 0.0, 0.0, -0.75],
            [-3.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0],
            [-0.5, 2.0, -0.125, 1.0, 0.0],
        ]
        sensors = tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows))
        for h in (1, 2, 37, 600):
            model = LtiModel(state, sensors, h)
            first = np.array(rows)[:, :, None] * np.array(rows)[:, None, :]
            assert np.any(np.signbit(first) & (first == 0.0))
            assert_blocks_keep_the_bits(model)


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

    @pytest.mark.parametrize("p, k", [(5, 12), (13, 300), (40, 500), (70, 200)])
    def test_partial_batches_match_ascending_member_sums_bit_for_bit(self, p, k):
        # k < 2^p, so the sums start from a table over fewer than p sensors
        # and add the higher members on top
        rng = np.random.default_rng(p)
        sensors = tuple(Sensor(f"s{i}", rng.uniform(-2, 2, 3)) for i in range(p))
        bank = per_sensor_gramians(LtiModel(rng.uniform(-1, 1, (3, 3)), sensors, 6))
        members = rng.random((k, p)) < rng.uniform(0.1, 0.9, (k, 1))
        got = coalition_gramians(bank, pack_masks(members))
        assert got.tobytes() == ascending_sums(bank, members).tobytes()

    def test_single_mask_batch_matches_ascending_member_sums_bit_for_bit(self):
        bank = per_sensor_gramians(gramian_corpus(1, seed=4545)[0])
        p = len(bank)
        for mask in (0, 1, (1 << p) - 1, 1 << (p - 1)):
            members = (mask >> np.arange(p) & 1).astype(bool)[None]
            got = coalition_gramians(bank, np.array([mask]))
            assert got.tobytes() == ascending_sums(bank, members).tobytes()

    def test_non_finite_sums_match_ascending_member_sums_bit_for_bit(self):
        bank = np.array([[[1e308]], [[1e308]], [[-np.inf]]])  # inf, -inf, nan
        masks = np.arange(1, 8)  # 7 masks: a table over all three sensors
        members = (masks[:, None] >> np.arange(3) & 1).astype(bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coalition_gramians(bank, masks)
        assert got.tobytes() == ascending_sums(bank, members).tobytes()
        assert np.isnan(got[6, 0, 0]) and got[3, 0, 0] == -np.inf

    @pytest.mark.parametrize("p", [5, 40, 70])
    def test_signed_zero_and_infinite_entries_match_ascending_member_sums(self, p):
        # -0.0, negative and +-inf bank entries: a non-member's +0.0 addend
        # must leave every partial sum's bits alone, with one mask word
        # (p = 5 and 40) and two (p = 70); 600 masks give a partial table
        # over 10 sensors, so p = 5 is the table alone
        rng = np.random.default_rng(p)
        pool = np.array([-0.0, 0.0, -1.5, 2.0, -3e-310, np.inf, -np.inf, 1e308])
        bank = pool[rng.integers(0, len(pool), (p, 2, 3))]
        bank[rng.integers(0, p, 3), 0, 0] = -0.0
        members = rng.random((600, p)) < rng.uniform(0.0, 0.6, (600, 1))
        members[:3] = [np.zeros(p), np.ones(p), np.arange(p) % 2]
        words = pack_masks(members)
        assert words.shape[1] == (1 if p <= 64 else 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coalition_gramians(bank, words)
        want = ascending_sums(bank, members)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[members.sum(1) > 0]).any()
        assert not np.signbit(got[0]).any()  # the empty coalition is +0.0

    def test_full_gramian_matches_the_all_members_mask_bit_for_bit(self):
        banks = [per_sensor_gramians(m) for m in gramian_corpus(20, seed=4343)]
        banks.append(np.array([[[1e308]], [[1e308]], [[-np.inf]]]))  # inf, nan
        # 40 members of 1x1 entries: numpy reduces a contiguous axis
        # pairwise, so a one-call sum over the bank would move bits here
        rng = np.random.default_rng(4344)
        for shape in ((40, 1, 1), (40, 2, 2)):
            banks.append(rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape))
        for bank in banks:
            full = pack_masks(np.ones((1, len(bank)), dtype=bool))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = metrics.full_gramian(bank)
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
    """The numerical contract every bank member meets, and the symmetry the
    definition-level construction shares with it."""

    def test_members_and_direct_gramians_are_exactly_symmetric(self):
        rng = np.random.default_rng(6160)
        for model in wide_bank_corpus(80):
            grams = list(per_sensor_gramians(model))
            p = model.sensor_count
            for _ in range(3 if p > 1 else 0):  # two or more members each
                mask = int(rng.integers(1 << p)) | 0b11 << int(rng.integers(p - 1))
                grams.append(gramian_direct(model, mask))
            for g in grams:
                assert g.tobytes() == np.ascontiguousarray(g.T).tobytes()

    def test_rejects_indefinite_entries(self):
        # the tolerance below zero is max(PSD_RTOL * lambda_max, PSD_FLOOR)
        within = np.array([np.diag([-0.9e-12, 1e-4]), np.diag([-0.9e-9, 1.0])])
        assert gramian._eigenvalues(within)[:, 0].tolist() == [0.0, 0.0]
        for beyond in (np.diag([-1.1e-12, 1e-4]), np.diag([-1.1e-9, 1.0])):
            expected = r"not positive semidefinite \(minimum eigenvalue -1\.100000e"
            with pytest.raises(ValueError, match=expected):
                gramian._eigenvalues(beyond)

    def test_rejects_non_finite_entries(self):
        stack = np.array([np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]])
        with pytest.raises(ValueError, match="Gramian contains non-finite entries"):
            gramian._eigenvalues(stack)
        sensors = (Sensor("x1", [1.0, 0.0]), Sensor("x2", [0.0, 1.0]))
        model = LtiModel(np.diag([3.0, 0.5]), sensors, 800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflowed = gramian_direct(model, 0b01)
        with pytest.raises(ValueError, match="Gramian contains non-finite"):
            gramian._eigenvalues(overflowed)

    def test_entries_read_only(self, scenario1_model):
        g = per_sensor_gramians(scenario1_model)
        with pytest.raises(ValueError):
            g[0, 0] = 5.0


class TestOwnership:
    """Who may write each Gramian array: the bank and a result's grand
    Gramian are shared and read-only; batch sums, batch values and
    ``full_gramian`` are fresh arrays the caller owns."""

    def test_bank_and_grand_gramian_are_read_only(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        grand = shapley_exact(scenario2_model, ValueFunctionKind.TRACE).grand_gramian
        for shared in (bank, grand):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = 5.0

    def test_batch_sums_and_full_gramian_are_fresh_writeable_arrays(
        self, scenario2_model
    ):
        bank = per_sensor_gramians(scenario2_model)
        owned = [
            coalition_gramians(bank, np.array([15, 1, 0])),
            coalition_gramians(bank, pack_masks(np.eye(4, dtype=bool))),
            coalition_values(bank, ValueFunctionKind.TRACE, np.array([15, 1, 0])),
            metrics.full_gramian(bank),
        ]
        for array in owned:
            assert array.flags.writeable and array.flags.c_contiguous
            assert not np.shares_memory(array, bank)
            array[...] = 5.0
        assert coalition_gramians(bank, np.array([1]))[0].tolist() == bank[0].tolist()


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
        g = metrics.full_gramian(per_sensor_gramians(scenario1_model))
        assert is_observable(g) is True

    def test_single_sensor_not_observable(self, scenario1_model):
        g = per_sensor_gramians(scenario1_model)[0]
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
        g = metrics.full_gramian(per_sensor_gramians(scenario1_model))
        assert is_observable(g, tol=1.0)
        assert not is_observable(g, tol=25.0)
        with pytest.raises(ValueError, match="positive"):
            is_observable(g, tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance_rejected(self, scenario1_model, tol):
        g = metrics.full_gramian(per_sensor_gramians(scenario1_model))
        with pytest.raises(ValueError, match="positive and finite"):
            is_observable(g, tol=tol)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (np.full((2, 2), np.nan), "Gramian contains non-finite entries"),
            (np.diag([np.inf, 1.0]), "Gramian contains non-finite entries"),
            (np.diag([1.0, -5.0]), "Gramian is not positive semidefinite"),
        ],
        ids=["nan", "inf", "indefinite"],
    )
    def test_applies_the_gramian_contract(self, g, expected):
        # the same verdict path as check: no False for a Gramian no other
        # entry point accepts
        with pytest.raises(ValueError, match=expected):
            is_observable(g)
