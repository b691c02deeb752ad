import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from sensor_shapley import (
    EnumerationCapExceeded,
    LtiModel,
    Sensor,
    ValueFunctionKind,
    coalition_values,
    evaluate,
    is_observable,
    metrics,
    pack_masks,
    per_sensor_gramians,
)
from sensor_shapley.metrics import value_table

from conftest import (
    ascending_sums,
    coalition_gramian,
    coalition_gramians,
    gramian_corpus,
    lti_models,
    over_the_cap_model,
    traced_peak,
    wide_bank_corpus,
)

TRACE = ValueFunctionKind.TRACE
MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


class TestValueFunctionKind:
    def test_cli_names_round_trip(self):
        assert ValueFunctionKind.from_cli_name("trace") is TRACE
        assert ValueFunctionKind.from_cli_name("min-eig") is MIN_EIG
        assert TRACE.value == "trace"
        assert MIN_EIG.value == "min-eig"

    def test_unknown_name_rejected(self):
        message = "'log-det' is not a valid ValueFunctionKind"
        with pytest.raises(ValueError, match=message):
            ValueFunctionKind.from_cli_name("log-det")


class TestEvaluate:
    def test_trace_of_combination_sensor(self, scenario2_model):
        g = coalition_gramian(per_sensor_gramians(scenario2_model), 0b100)
        assert evaluate(TRACE, g) == pytest.approx(5312.0)

    def test_min_eigenvalue_of_rank_deficient_sensor(self, scenario1_model):
        g = coalition_gramian(per_sensor_gramians(scenario1_model), 0b01)
        assert evaluate(MIN_EIG, g) == 0.0

    def test_min_eigenvalue_of_self_sufficient_sensor(self, scenario2_model):
        g = coalition_gramian(per_sensor_gramians(scenario2_model), 0b0001)
        assert evaluate(MIN_EIG, g) == pytest.approx(1.3920, abs=1e-3)

    def test_zero_gramian_evaluates_to_exactly_zero(self, scenario1_model):
        empty = coalition_gramian(per_sensor_gramians(scenario1_model), 0)
        assert evaluate(TRACE, empty) == 0.0
        assert evaluate(MIN_EIG, empty) == 0.0

    def test_tiny_negative_eigenvalue_clamped_to_zero(self, scenario1_model):
        # any rank-deficient Gramian exercises the clamp: the zero eigenvalue
        # comes back from the solver as a tiny value of either sign
        bank = per_sensor_gramians(scenario1_model)
        for mask in (0b01, 0b10):
            value = evaluate(MIN_EIG, coalition_gramian(bank, mask))
            assert value == 0.0 or value > 0.0

    def test_unknown_kind_is_named(self, scenario1_model):
        # a metric's name is not a kind; both entry points refuse it by name
        bank = per_sensor_gramians(scenario1_model)
        with pytest.raises(ValueError, match="no evaluator registered for 'trace'"):
            evaluate("trace", bank[0])
        with pytest.raises(ValueError, match="no evaluator registered for 'min-eig'"):
            coalition_values(bank, "min-eig")

    def test_stack_matches_one_at_a_time_bit_for_bit(self):
        for model in gramian_corpus(20, seed=515):
            stack = coalition_gramians(
                per_sensor_gramians(model), np.arange(1 << model.sensor_count)
            )
            for kind in (TRACE, MIN_EIG):
                batched = evaluate(kind, stack)
                assert batched.shape == (len(stack),)
                single = [evaluate(kind, g) for g in stack]
                assert batched.tobytes() == np.array(single).tobytes()

    def test_non_finite_gramian_rejected(self):
        bad = np.array([[[1.0, 0.0], [0.0, np.inf]]])
        for kind in (TRACE, MIN_EIG):
            with pytest.raises(ValueError, match="non-finite"):
                evaluate(kind, bad)

    def test_finite_entries_summing_past_the_float_range_are_accepted(self):
        # the one finiteness check screens by the sum, which overflows here,
        # so its mask decides: every entry is finite
        stack = np.array([np.diag([1e308, 1e300]), np.diag([1e300, 1e308])])
        with np.errstate(over="ignore"):
            assert not np.isfinite(stack.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mins = evaluate(MIN_EIG, stack)
            assert is_observable(stack).tolist() == [True, True]
            traces = evaluate(TRACE, stack)
        assert mins.tobytes() == np.linalg.eigvalsh(stack)[:, 0].tobytes()
        assert traces.tobytes() == np.trace(stack, axis1=1, axis2=2).tobytes()

    @pytest.mark.parametrize(
        "where, value", [((1, 0, 1), np.inf), ((1, 1, 1), np.nan)], ids=["inf", "nan"]
    )
    def test_one_non_finite_entry_is_refused_with_one_message(self, where, value):
        # an inf in the upper triangle, which eigvalsh does not read, and a NaN
        # on the diagonal; the trace reads only the diagonal
        stack = np.array([np.eye(2), np.eye(2)])
        stack[where] = value
        checks = [lambda: evaluate(MIN_EIG, stack), lambda: is_observable(stack)]
        if np.isnan(value):
            checks.append(lambda: evaluate(TRACE, stack))
        else:
            assert evaluate(TRACE, stack).tolist() == [2.0, 2.0]
        message = "^Gramian contains non-finite entries$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in checks:
                with pytest.raises(ValueError, match=message):
                    check()

    def test_indefinite_gramian_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            evaluate(MIN_EIG, np.array([[[-1.0, 0.0], [0.0, 1.0]]]))

    def test_indefinite_stack_error_names_the_lowest_eigenvalue(self):
        stack = np.array([np.diag([-1.0, 1.0]), np.eye(2), np.diag([1.0, -3.0])])
        expected = (
            "Gramian is not positive semidefinite (minimum eigenvalue "
            "-3.000000e+00)"
        )
        with pytest.raises(ValueError) as info:
            evaluate(MIN_EIG, stack)
        assert str(info.value) == expected


class TestValueTable:
    def test_two_sensor_trace_table(self, scenario1_model):
        table = value_table(scenario1_model, TRACE)
        assert table[0b00] == 0.0
        assert table[0b01] == pytest.approx(20.0)
        assert table[0b10] == pytest.approx(20.0)
        assert table[0b11] == pytest.approx(40.0)

    def test_two_sensor_min_eig_table(self, scenario1_model):
        table = value_table(scenario1_model, MIN_EIG)
        assert table[0b00] == 0.0
        assert table[0b01] == 0.0
        assert table[0b10] == 0.0
        assert table[0b11] == pytest.approx(20.0)

    def test_single_sensor_table(self):
        model = LtiModel([[2.0]], (Sensor("a", [1.0]),), 3)
        table = value_table(model, TRACE)
        assert table[0] == 0.0
        # 1 + 4 + 16 from the three powers of the scalar dynamics
        assert table[1] == pytest.approx(21.0)

    def test_array_layout(self, scenario2_model):
        table = value_table(scenario2_model, TRACE)
        assert table.shape == (16,)
        assert not table.flags.writeable
        assert table[-1] == pytest.approx(8804.0)
        assert table[0b0101] == pytest.approx(3187.0 + 5312.0)

    def test_cap_enforced_with_pointer_to_sampling(self):
        with pytest.raises(EnumerationCapExceeded, match="shapley_sampled"):
            value_table(over_the_cap_model(), TRACE)

    def test_chunked_evaluation_is_bit_identical(self, monkeypatch):
        # a 3-coalition budget splits every table into many uneven chunks
        models = gramian_corpus(10, seed=2718)
        whole = [value_table(m, kind) for m in models for kind in (TRACE, MIN_EIG)]
        n_max = max(m.state_dimension for m in models)
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", 3 * 8 * n_max * n_max)
        chunked = [value_table(m, kind) for m in models for kind in (TRACE, MIN_EIG)]
        for a, b in zip(whole, chunked):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p, budget", [(1, 1), (5, 6), (13, 6)])
    def test_subset_recursion_matches_mask_batches(self, monkeypatch, p, budget):
        # the table's recursion over the low sensors, with chunks of 2^c
        # coalitions adding their high members, against plain mask batches;
        # a 6-coalition budget gives 4-coalition table chunks
        rng = np.random.default_rng(p)
        n = 3
        model = LtiModel(
            rng.uniform(-1.0, 1.0, size=(n, n)),
            tuple(Sensor(f"s{i}", rng.uniform(-1.0, 1.0, size=n)) for i in range(p)),
            6,
        )
        bank = per_sensor_gramians(model)
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget * 8 * n * n)
        for kind in (TRACE, MIN_EIG):
            table = coalition_values(bank, kind)
            batched = coalition_values(bank, kind, np.arange(2**p))
            assert table.tobytes() == batched.tobytes()

    @pytest.mark.parametrize("n", [6, 9, 24])
    def test_table_matches_mask_batches_and_full_gramians(self, monkeypatch, n):
        # n = 9 is past numpy's pairwise-sum threshold of 8 and n = 24 is the
        # long-horizon workload's state size; a 40-coalition budget gives
        # 32-coalition table chunks and 40-mask batches
        rng = np.random.default_rng(n)
        p = 10
        model = LtiModel(
            rng.uniform(-0.5, 0.5, size=(n, n)),
            tuple(Sensor(f"s{i}", rng.uniform(-1.0, 1.0, size=n)) for i in range(p)),
            7,
        )
        bank = per_sensor_gramians(model)
        masks = np.arange(2**p)
        full = coalition_gramians(bank, masks)
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", 40 * 8 * n * n)
        for kind in (TRACE, MIN_EIG):
            table = coalition_values(bank, kind)
            assert table.tobytes() == coalition_values(bank, kind, masks).tobytes()
            want = evaluate(kind, full)
            want[0] = 0.0
            assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunks", [1, 4])
    def test_min_eig_table_holds_its_solve_buffers_and_the_table(
        self, monkeypatch, chunks
    ):
        # a min-eig table sums whole members straight into the (2^c, n, n)
        # stack it solves: the table itself in one chunk, the low table and
        # one solve buffer in more. Beside them the peak holds the (2^c, n)
        # eigenvalues of one buffer, the value table, and eigvalsh's
        # per-matrix workspace; the finiteness check screens by a sum, not a
        # mask. Entry-major partial tables would add 8 n (n + 1) / 2 bytes per
        # coalition of a chunk.
        p, n = 10, 24
        rng = np.random.default_rng(1024)
        state = np.linalg.qr(rng.standard_normal((n, n)))[0]
        sensors = tuple(Sensor(f"s{i}", rng.standard_normal(n)) for i in range(p))
        bank = per_sensor_gramians(LtiModel(state, sensors, 30))
        size = (1 << p) // chunks
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", size * 8 * n * n)
        coalition_values(bank, MIN_EIG)
        peak = traced_peak(coalition_values, bank, MIN_EIG)
        buffers = 1 if chunks == 1 else 2
        held = 8 * buffers * size * n * n + 8 * size * n + 8 * (1 << p)
        assert peak <= held + (32 << 10)

    @pytest.mark.parametrize("p", [5, 13, 40, 70])
    def test_min_eig_batches_match_full_ascending_sums_bit_for_bit(
        self, monkeypatch, p
    ):
        # the packed lower triangles against evaluate on the full ascending
        # sums, for banks of p members drawn from each wide-corpus model (n
        # up to 24), with 37-mask chunks so batches cross chunk boundaries
        rng = np.random.default_rng(p)
        for model in wide_bank_corpus(12)[::2]:
            source = per_sensor_gramians(model)
            bank = source[rng.integers(0, len(source), p)]
            members = rng.random((150, p)) < rng.uniform(0.0, 1.0, (150, 1))
            n = model.state_dimension
            monkeypatch.setattr(metrics, "_CHUNK_BYTES", 37 * 8 * n * n)
            got = coalition_values(bank, MIN_EIG, pack_masks(members))
            want = evaluate(MIN_EIG, ascending_sums(bank, members))
            assert got.tobytes() == want.tobytes(), (n, p)

    def test_batch_values_match_the_table(self, scenario2_model):
        bank = per_sensor_gramians(scenario2_model)
        table = coalition_values(bank, MIN_EIG)
        masks = np.array([9, 0, 15, 6])
        assert coalition_values(bank, MIN_EIG, masks).tolist() == table[masks].tolist()


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(lti_models(max_states=4, max_sensors=5, max_horizon=8))
    def test_trace_is_additive_over_members(self, model):
        table = value_table(model, TRACE)
        singles = table[1 << np.arange(model.sensor_count)]
        for mask in range(len(table)):
            members = [i for i in range(model.sensor_count) if mask >> i & 1]
            expected = float(singles[members].sum()) if members else 0.0
            got = float(table[mask])
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lti_models(max_states=4, max_sensors=4, max_horizon=6, scale=1.0))
    def test_min_eig_never_decreases_when_a_sensor_joins(self, model):
        table = value_table(model, MIN_EIG)
        p = model.sensor_count
        for mask in range(1 << p):
            for i in range(p):
                if mask >> i & 1:
                    continue
                assert table[mask | (1 << i)] >= table[mask] - 1e-10

    def test_min_eig_is_not_additive(self, scenario1_model):
        # the canonical interaction case: both sensors are blind alone, the
        # pair is fully observable, so the eigenvalue of the sum exceeds the
        # sum of the eigenvalues
        table = value_table(scenario1_model, MIN_EIG)
        singles_sum = table[0b01] + table[0b10]
        assert singles_sum == 0.0
        assert table[0b11] == pytest.approx(20.0)
        assert table[0b11] != singles_sum


class TestTraceReadsTheDiagonal:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_evaluate_equals_numpy_trace_bit_for_bit(self, n):
        # from n = 8 numpy sums the diagonal pairwise
        rng = np.random.default_rng(4000 + n)
        for k in (1, 3, 1000):
            scale = 10.0 ** rng.uniform(-6, 6, (k, 1, 1))
            stack = rng.standard_normal((k, n, n)) * scale
            got = evaluate(TRACE, stack).view(np.uint64)
            want = np.trace(stack, axis1=-2, axis2=-1).view(np.uint64)
            assert np.array_equal(got, want)

    def test_table_matches_traces_of_chunked_batches(self, monkeypatch):
        # 4 KiB chunks split p = 13 into many; n = 9 sums pairwise
        rng = np.random.default_rng(13)
        n, p = 9, 13
        model = LtiModel(
            rng.uniform(-0.5, 0.5, size=(n, n)),
            tuple(Sensor(f"s{i}", rng.uniform(-1.0, 1.0, size=n)) for i in range(p)),
            5,
        )
        bank = per_sensor_gramians(model)
        masks = np.arange(2**p)
        full = np.trace(coalition_gramians(bank, masks), axis1=-2, axis2=-1)
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", 4096)
        table = coalition_values(bank, TRACE)
        assert table.tobytes() == coalition_values(bank, TRACE, masks).tobytes()
        assert table.tobytes() == full.tobytes()

    def test_non_finite_diagonal_sum_is_refused(self):
        # both members are finite; their coalition's first diagonal entry is not
        bank = np.array([np.diag([1e308, 1.0]), np.diag([1e308, 1.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for masks in (None, np.array([3])):
                with pytest.raises(ValueError, match="non-finite entries"):
                    coalition_values(bank, TRACE, masks)

    def test_finite_diagonals_summing_past_the_float_range_are_refused(self):
        bank = np.array([np.diag([1e308, 0.0]), np.diag([0.0, 1e308])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for masks in (None, np.array([3])):
                with pytest.raises(ValueError, match="Gramian trace overflows"):
                    coalition_values(bank, TRACE, masks)
