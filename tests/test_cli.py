import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensor_shapley import (
    LtiModel,
    Sensor,
    ValueFunctionKind,
    cli,
    model,
    per_sensor_gramians,
    shapley,
)
from sensor_shapley.cli import main

from conftest import eigen_solves, load_script, over_the_cap_payload

# The command line of each golden is in the same-bits corpus.
corpus = load_script("same_bits_corpus")
SRC = Path(__file__).resolve().parent.parent / "src"


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_scenario2_trace_json(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--scenario", "2", "--metric", "trace",
            "--format", "json",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["observable"] is True
        assert payload["metric"] == "trace"

    def test_scenario1_min_eig_table(self, capsys):
        code, out, err = run(capsys, "analyze", "--scenario", "1")
        assert code == 0
        assert "C1" in out and "C2" in out
        assert "min-eig" in out
        assert "grand value:         20" in out
        assert "fully observable:    yes" in out

    def test_scenario1_min_eig_values(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--scenario", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert [s["standalone"] for s in payload["per_sensor"]] == [0.0, 0.0]
        assert [s["shapley"] for s in payload["per_sensor"]] == [10.0, 10.0]
        assert payload["grand_value"] == 20.0

    def test_horizon_override(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--scenario", "1", "--format", "json",
            "--horizon", "4", "--metric", "trace",
        )
        payload = json.loads(out)
        assert payload["horizon_samples"] == 4
        assert [s["shapley"] for s in payload["per_sensor"]] == [8.0, 8.0]

    def test_sampled_method(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--scenario", "2", "--format", "json",
            "--sample", "500", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == {
            "kind": "permutation-sampling",
            "num_permutations": 500,
            "seed": 3,
        }
        assert payload["axiom_report"] is None

    def test_sampled_runs_are_reproducible(self, capsys):
        _, first, _ = run(
            capsys, "analyze", "--scenario", "2", "--format", "json",
            "--sample", "200",
        )
        _, second, _ = run(
            capsys, "analyze", "--scenario", "2", "--format", "json",
            "--sample", "200",
        )
        assert first == second

    @pytest.mark.parametrize("golden, argv", corpus.GOLDENS.items())
    def test_golden_trace_and_sampled_reports(self, golden, argv):
        # the corpus runs argv as golden-<file>, and test_same_bits checks its
        # bytes on this run's BLAS core; the file holds the stdout recorded
        # on the default manifest's core
        _, runs = corpus.read_manifest(corpus.MANIFEST)
        recorded = runs[f"golden-{golden}"].split()[2]
        digest = hashlib.sha256((corpus.GOLDEN_DIR / golden).read_bytes()).hexdigest()
        assert digest == recorded

    def test_every_golden_file_has_a_command(self):
        files = sorted(path.name for path in corpus.GOLDEN_DIR.iterdir())
        assert files == sorted(corpus.GOLDENS)
        empty = hashlib.sha256(b"").hexdigest()
        for manifest in sorted(corpus.TESTS.glob("same_bits_manifest*.txt")):
            _, runs = corpus.read_manifest(manifest)
            pinned = {
                run_id.removeprefix("golden-"): line.split()[1:]
                for run_id, line in runs.items()
                if run_id.startswith("golden-")
            }
            assert sorted(pinned) == files, manifest.name
            for name, (code, _, err) in pinned.items():
                assert code == "0" and err == empty, (manifest.name, name)


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def sensors_payload(count):
    return {
        "state_matrix": [[0.0, 1.0], [-1.0, 0.0]],
        "sensors": [
            {"name": f"s{i}", "row": [1.0, float(i % 3)]} for i in range(count)
        ],
        "horizon_samples": 4,
    }


class TestWorkPerAnalyze:
    @pytest.mark.parametrize("extra", [[], ["--sample", "30"]])
    def test_validation_count_does_not_grow_with_sensors(
        self, tmp_path, capsys, monkeypatch, extra
    ):
        # once, by the constructor; nothing downstream checks the model again
        for p in (3, 9):
            path = write_model(tmp_path, sensors_payload(p), f"p{p}.json")
            for argv in (["analyze", *extra], ["check"]):
                calls = counting(monkeypatch, model, "validate_model")
                code, _, _ = run(capsys, *argv, "--model", path)
                assert code == 0
                assert len(calls) == 1
                monkeypatch.undo()

    @pytest.mark.parametrize("extra", [[], ["--sample", "30"]])
    def test_bank_and_table_built_once(self, tmp_path, capsys, monkeypatch, extra):
        banks = counting(monkeypatch, shapley, "per_sensor_gramians")
        tables = counting(monkeypatch, shapley, "coalition_values")
        # the bank shares one power chain; neither it nor the verdict runs
        # the permutation oracle's per-coalition construction
        oracle = counting(monkeypatch, shapley, "_observability_matrix")
        path = write_model(tmp_path, sensors_payload(5))
        code, _, _ = run(capsys, "analyze", "--model", path, *extra)
        assert code == 0
        assert len(banks) == 1 and len(tables) == 1 and not oracle

    def test_sampled_run_values_each_coalition_once(self, capsys, monkeypatch):
        calls = eigen_solves(monkeypatch)
        code, _, _ = run(capsys, "analyze", "--scenario", "2", "--sample", "50")
        assert code == 0
        # the prefixes and one-member coalitions in one batch, then the
        # verdict on the grand Gramian; the bank is not solved on its own
        assert calls == [(15, 3, 3), (3, 3)]

    @pytest.mark.parametrize(
        "metric, want",
        [("min-eig", [(16, 3, 3), (3, 3)]), ("trace", [(3, 3)])],
        ids=["min-eig", "trace"],
    )
    def test_exact_run_solves_each_coalition_once(
        self, capsys, monkeypatch, metric, want
    ):
        calls = eigen_solves(monkeypatch)
        code, _, _ = run(capsys, "analyze", "--scenario", "2", "--metric", metric)
        assert code == 0
        # the min-eig table, then the verdict; the trace reads no eigenvalue
        # but the verdict's
        assert calls == want


class TestAnalyzeErrors:
    def test_unreadable_model_file(self, capsys):
        code, out, err = run(capsys, "analyze", "--model", "/nonexistent.json")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--model", str(path))
        assert code == 2
        assert "syntax" in err

    def test_schema_violation(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {
                "state_matrix": [[1.0]],
                "sensors": [{"name": "a", "row": [1.0]}],
                "horizon_samples": 0,
            },
        )
        code, _, err = run(capsys, "analyze", "--model", path)
        assert code == 2
        assert "schema" in err

    def test_validation_failure(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {
                "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
                "sensors": [{"name": "a", "row": [1.0, 0.0, 5.0]}],
                "horizon_samples": 3,
            },
        )
        code, _, err = run(capsys, "analyze", "--model", path)
        assert code == 2
        assert "row length mismatch" in err

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_every_violation_on_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "model.json"
        path.write_text(  # 1e400 parses to inf
            '{"state_matrix": [[1.0, 1e400]], "sensors": ['
            '{"name": "a", "row": [1.0]}, {"name": "a", "row": [1e400, 0.0]}, '
            '{"name": "b", "row": [2.0, 3.0, 4.0]}], "horizon_samples": 3}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, command, "--model", str(path))
        assert code == 2 and out == ""
        assert err == (
            "sensor-shapley: error: model document validation error: "
            "state_matrix: expected a square matrix, got shape (1, 2); "
            "state_matrix: non-finite entry at (0, 1); "
            "sensors[1].name: duplicate sensor name 'a'; "
            "sensors[1].row: non-finite entry at index 0\n"
        )

    def test_unknown_field_with_control_character_on_one_line(
        self, tmp_path, capsys
    ):
        payload = {
            "state_matrix": [[1.0]],
            "sensors": [{"name": "a", "row": [1.0], "g\u001b[31mx\ny": 1.0}],
            "horizon_samples": 3,
        }
        path = write_model(tmp_path, payload)
        code, out, err = run(capsys, "analyze", "--model", path)
        assert code == 2 and out == ""
        assert err == (
            "sensor-shapley: error: model document schema error at sensors[0]: "
            "unknown field(s): 'g\\x1b[31mx\\ny'\n"
        )
        assert "\x1b" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "check"])
    @pytest.mark.parametrize("location", ["state_matrix[1][1]", "sensors[0].row[1]"])
    def test_oversized_integer_is_a_schema_error(
        self, tmp_path, capsys, command, location
    ):
        payload = {
            "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "sensors": [{"name": "a", "row": [1.0, 0.0]}],
            "horizon_samples": 3,
        }
        # a 400-digit integer literal has no float value
        if location.startswith("state_matrix"):
            payload["state_matrix"][1][1] = 10**400
        else:
            payload["sensors"][0]["row"][1] = 10**400
        path = write_model(tmp_path, payload)
        code, out, err = run(capsys, command, "--model", path)
        assert code == 2 and out == ""
        assert err == (
            f"sensor-shapley: error: model document schema error at "
            f"{location}: number is too large for a float\n"
        )

    @pytest.mark.parametrize(
        "location, message",
        [
            ("state_matrix[0][0]", "number is too large for a float"),
            ("horizon_samples", "integer is too large"),
        ],
    )
    def test_integer_beyond_the_digit_limit_is_a_schema_error(
        self, tmp_path, capsys, location, message
    ):
        # int() refuses literals over 4300 digits, json.loads included
        long = "1" * 5000
        matrix, horizon = ("1", long) if location == "horizon_samples" else (long, "3")
        path = tmp_path / "model.json"
        path.write_text(
            f'{{"state_matrix": [[{matrix}]], "sensors": [{{"name": "a", '
            f'"row": [1]}}], "horizon_samples": {horizon}}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "analyze", "--model", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"sensor-shapley: error: model document schema error at "
            f"{location}: {message}\n"
        )

    NUMBER_ERROR = (
        "sensor-shapley: error: model document schema error at "
        "state_matrix[0][0]: expected a number, got "
    )

    @staticmethod
    def first_entry_error(tmp_path, capsys, entry):
        # the error for a JSON text in the first state_matrix entry
        path = tmp_path / "model.json"
        path.write_text(
            f'{{"state_matrix": [[{entry}]], "sensors": [{{"name": "a", '
            f'"row": [1]}}], "horizon_samples": 1}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "analyze", "--model", str(path))
        assert code == 2 and out == ""
        return err

    def test_short_offending_value_is_shown_whole(self, tmp_path, capsys):
        err = self.first_entry_error(tmp_path, capsys, '[[1, "x"], null]')
        assert err == self.NUMBER_ERROR + "[[1, 'x'], None]\n"

    @pytest.mark.parametrize(
        "entry",
        [json.dumps([1.5] * 2000), "[" * 900 + "]" * 900],
        ids=["2000-element list", "900-deep list"],
    )
    def test_large_offending_value_is_shown_cut_short(self, tmp_path, capsys, entry):
        err = self.first_entry_error(tmp_path, capsys, entry)
        assert err.startswith(self.NUMBER_ERROR + entry[:10])
        assert err.endswith("...\n") and len(err) < 200

    def test_nesting_beyond_the_recursion_limit_is_a_syntax_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "model.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run(capsys, "check", "--model", str(path))
        assert code == 2 and out == ""
        assert err == (
            "sensor-shapley: error: model document syntax error: "
            "nesting is too deep\n"
        )

    def test_missing_model_source(self, capsys):
        code, _, _ = run(capsys, "analyze")
        assert code == 2

    def test_unknown_metric(self, capsys):
        code, _, _ = run(capsys, "analyze", "--scenario", "1", "--metric", "det")
        assert code == 2

    def test_negative_seed_rejected_by_the_parser(self, capsys, monkeypatch):
        samplers = counting(monkeypatch, cli, "shapley_sampled")
        code, out, err = run(
            capsys, "analyze", "--scenario", "2", "--sample", "10", "--seed", "-1"
        )
        assert code == 2
        assert out == "" and not samplers
        assert "argument --seed: must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize(
        "flag, wording",
        [
            ("--seed", "a non-negative integer"),
            ("--sample", "a positive integer"),
            ("--horizon", "a positive integer"),
            ("--tolerance", "a positive number"),
        ],
    )
    def test_non_numeric_value_rejected_by_the_parser(
        self, capsys, monkeypatch, flag, wording
    ):
        samplers = counting(monkeypatch, cli, "shapley_sampled")
        code, out, err = run(
            capsys, "analyze", "--scenario", "2", "--sample", "10", flag, "x"
        )
        assert code == 2
        assert out == "" and not samplers
        assert f"argument {flag}: must be {wording}, got x" in err

    @pytest.mark.parametrize("command", ["analyze", "check"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_rejected_by_the_parser(self, capsys, command, value):
        code, out, err = run(capsys, command, "--scenario", "2", "--tolerance", value)
        assert code == 2 and out == ""
        assert f"argument --tolerance: must be a positive number, got {value}" in err

    def test_efficiency_violation_exits_four(
        self, capsys, monkeypatch, scenario2_model
    ):
        # the digits depend on the BLAS core, so take them from this run
        kind = ValueFunctionKind.MIN_EIGENVALUE
        result = shapley.shapley_exact(scenario2_model, kind)
        total = float((result.shapley_values + 1.0).sum())
        contract = shapley.shapley_from_table
        monkeypatch.setattr(
            shapley, "shapley_from_table", lambda table, p: contract(table, p) + 1.0
        )
        code, out, err = run(capsys, "analyze", "--scenario", "2")
        assert code == 4 and out == ""
        assert err == (
            "sensor-shapley: error: efficiency violated: Shapley values sum to "
            f"{total!r} but the grand value is {float(result.grand_value)!r}\n"
        )

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="ROADMAP item 7: shapley._efficiency scales its tolerance with "
        "|grand value|, not with the table's rounding scale, so analyze exits 4",
    )
    def test_min_eig_below_the_noise_floor_is_not_an_efficiency_violation(
        self, tmp_path, capsys
    ):
        # v({near}) = 3.15e16, but v({far, near}) = v(N) = 0: the minimum
        # eigenvalue is below eps * lambda_max(grand), about 2e25
        c, s = np.cos(0.5), np.sin(0.5)
        payload = {
            "state_matrix": [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
            "sensors": [
                {"name": "far", "row": [0.0, 0.0, 1e20]},
                {"name": "near", "row": [1e8, 0.0, 1e8]},
                {"name": "mid", "row": [1.0, 0.0, 0.0]},
            ],
            "horizon_samples": 10,
        }
        path = write_model(tmp_path, payload)
        code, _, err = run(capsys, "analyze", "--model", path)
        assert code == 0, err

    def test_cap_exceeded_without_sample(self, tmp_path, capsys):
        path = write_model(tmp_path, over_the_cap_payload())
        code, _, err = run(capsys, "analyze", "--model", path, "--metric", "trace")
        assert code == 3
        assert "shapley_sampled" in err or "sample" in err

    def test_cap_exceeded_resolved_by_sampling(self, tmp_path, capsys):
        path = write_model(tmp_path, over_the_cap_payload())
        code, out, _ = run(
            capsys, "analyze", "--model", path, "--metric", "trace",
            "--format", "json", "--sample", "50",
        )
        assert code == 0
        assert len(json.loads(out)["per_sensor"]) == 25

    def test_unallocatable_sample_count_exits_two(self, capsys):
        # the allocator refuses petabytes at once, so nothing is allocated;
        # exit 1 stays check's "unobservable"
        code, out, err = run(
            capsys, "analyze", "--scenario", "2", "--sample", "1000000000000000"
        )
        assert code == 2 and out == ""
        assert err.startswith("sensor-shapley: error: Unable to allocate")
        assert err.count("\n") == 1

    def test_unstable_dynamics_fail_cleanly(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {
                "state_matrix": [[3.0, 0.0], [0.0, 0.5]],
                "sensors": [
                    {"name": "a", "row": [1.0, 0.0]},
                    {"name": "b", "row": [0.0, 1.0]},
                ],
                "horizon_samples": 800,
            },
        )
        for command in ("analyze", "check"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, command, "--model", path)
            assert code == 2 and out == ""
            assert "sensor 'a'" in err and "800 samples" in err

    def test_overflowing_outputs_of_steady_dynamics_name_the_cause(
        self, tmp_path, capsys
    ):
        # A = I does not grow; the rows' squares 1e400 pass the float range
        payload = {
            "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "sensors": [
                {"name": "a", "row": [1e200, 0.0]},
                {"name": "b", "row": [0.0, 1e200]},
            ],
            "horizon_samples": 3,
        }
        path = write_model(tmp_path, payload)
        for argv in (
            ("analyze", "--metric", "trace"),
            ("analyze",),
            ("analyze", "--sample", "5"),
            ("check",),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv, "--model", path)
            assert code == 2 and out == ""
            assert err == (
                "sensor-shapley: error: Gramian of sensor 'a' overflows to "
                "non-finite values over 3 samples: its squared outputs pass "
                "the float range\n"
            )

    def test_sensor_blind_to_the_unstable_mode_is_accepted(self, tmp_path, capsys):
        # A^800 overflows, but the sensor's own outputs 0.5^k decay: its
        # Gramian is sum_k 0.25^k = 4/3 on the stable state, 0 on the other
        payload = {
            "state_matrix": [[3.0, 0.0], [0.0, 0.5]],
            "sensors": [{"name": "b", "row": [0.0, 1.0]}],
            "horizon_samples": 800,
        }
        path = write_model(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blind = LtiModel(np.diag([3.0, 0.5]), (Sensor("b", [0.0, 1.0]),), 800)
            bank = per_sensor_gramians(blind)
            np.testing.assert_allclose(
                bank, [np.diag([0.0, 4.0 / 3.0])], rtol=1e-15, atol=0.0
            )
            code, out, err = run(capsys, "analyze", "--model", path)
            assert code == 0 and err == "" and "b " in out
            code, out, err = run(capsys, "check", "--model", path)
            assert code == 1 and err == ""


class TestNearTheFloatRange:
    COMMANDS = [
        ("analyze", "--metric", "trace"),
        ("analyze", "--metric", "min-eig"),
        ("analyze", "--sample", "1"),
        ("check",),
    ]

    @staticmethod
    def model(tmp_path, rows):
        sensors = [{"name": f"s{i}", "row": row} for i, row in enumerate(rows)]
        payload = {"state_matrix": [[1.0]], "sensors": sensors, "horizon_samples": 1}
        return write_model(tmp_path, payload)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_bank_entry_above_half_the_float_range_is_accepted(
        self, tmp_path, capsys, argv
    ):
        path = self.model(tmp_path, [[1e154]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--model", path)
        assert code == 0 and err == ""
        assert "1e+308" in out

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_coalition_sum_beyond_the_float_range_is_refused(
        self, tmp_path, capsys, argv
    ):
        path = self.model(tmp_path, [[8e153]] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--model", path)
        assert code == 2 and out == ""
        assert err == "sensor-shapley: error: Gramian contains non-finite entries\n"


    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("row, sample", [([3e153], "100"), ([1e154], "7")])
    def test_sampled_sum_beyond_the_float_range_is_refused(
        self, tmp_path, capsys, fmt, row, sample
    ):
        # v = 9e306 or 1e308: the marginals summed before dividing overflow
        path = self.model(tmp_path, [row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "analyze", "--model", path, "--sample", sample,
                "--format", fmt,
            )
        assert code == 2 and out == ""
        assert err == (
            f"sensor-shapley: error: sampled Shapley estimate of sensor 's0' "
            f"overflows: its {sample} marginal contributions sum beyond the "
            f"float range\n"
        )

    # one sensor [1e154, 1e154] on the 2x2 identity: every Gramian entry is
    # 1e308, finite, but the diagonal sums to 2e308
    TRACE_OVERFLOW = {
        "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "sensors": [{"name": "s0", "row": [1e154, 1e154]}],
        "horizon_samples": 1,
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--metric", "trace"),
            ("analyze", "--metric", "trace", "--format", "json"),
            ("analyze", "--metric", "trace", "--sample", "3"),
            ("check",),
        ],
    )
    def test_trace_beyond_the_float_range_is_refused(self, tmp_path, capsys, argv):
        path = write_model(tmp_path, self.TRACE_OVERFLOW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--model", path)
        assert code == 2 and out == ""
        assert err == (
            "sensor-shapley: error: Gramian trace overflows: its diagonal sums "
            "beyond the float range\n"
        )

    def test_min_eig_of_a_trace_beyond_the_float_range_is_reported(
        self, tmp_path, capsys
    ):
        path = write_model(tmp_path, self.TRACE_OVERFLOW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "analyze", "--metric", "min-eig", "--model", path
            )
        assert code == 0 and err == ""
        assert out == (
            "model: model    metric: min-eig    horizon samples: 1    method: exact\n"
            "\n"
            "Sensor  Value Function  Standalone Value  Shapley Value\n"
            "------  --------------  ----------------  -------------\n"
            "s0      min-eig         0                 0\n"
            "\n"
            "grand value:         0\n"
            "efficiency residual: 0\n"
            "fully observable:    no\n"
            "axioms:              pass (symmetric pairs: none; dummy sensors: s0)\n"
        )


class TestLongSensorNames:
    NAME = "n" * 5000

    @pytest.mark.parametrize(
        "state_matrix, rows, horizon, argv, message",
        [
            ([[1.0]], [[1.0], [2.0]], 1, ("check",), "duplicate sensor name"),
            ([[3.0]], [[1.0]], 800, ("check",), "overflows to non-finite values"),
            (
                [[1.0]],
                [[3e153]],
                1,
                ("analyze", "--sample", "100"),
                "sampled Shapley estimate",
            ),
        ],
        ids=["duplicate", "bank-overflow", "sampled-overflow"],
    )
    def test_error_quotes_a_long_name_cut_short(
        self, tmp_path, capsys, state_matrix, rows, horizon, argv, message
    ):
        sensors = [{"name": self.NAME, "row": row} for row in rows]
        payload = {
            "state_matrix": state_matrix,
            "sensors": sensors,
            "horizon_samples": horizon,
        }
        path = write_model(tmp_path, payload)
        code, out, err = run(capsys, *argv, "--model", path)
        assert code == 2 and out == ""
        # the message after the CLI's fixed prefix, one line of the fixed
        # text and the name cut to 80 characters with its quotes
        text = err.removeprefix("sensor-shapley: error: ")
        assert message in text and f"'{self.NAME[:76]}..." in text
        assert text.count("\n") == 1 and len(text) < 200

    def test_name_of_80_characters_is_quoted_whole(self, tmp_path, capsys):
        name = "n" * 78  # 80 characters with its quotes
        payload = {
            "state_matrix": [[1.0]],
            "sensors": [{"name": name, "row": [1.0]}, {"name": name, "row": [2.0]}],
            "horizon_samples": 1,
        }
        code, out, err = run(capsys, "check", "--model", write_model(tmp_path, payload))
        assert code == 2 and out == ""
        assert err.endswith(f"duplicate sensor name '{name}'\n")


class TestCheck:
    # one sensor that sees only the first of two states
    BLIND = {
        "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "sensors": [{"name": "a", "row": [1.0, 0.0]}],
        "horizon_samples": 5,
    }

    def test_one_eigen_solve_for_verdicts_and_min_eigenvalues(
        self, capsys, monkeypatch
    ):
        calls = eigen_solves(monkeypatch)
        code, _, _ = run(capsys, "check", "--scenario", "2")
        assert code == 0
        assert calls == [(5, 3, 3)]  # the lines; the bank is not solved alone

    def test_complementary_pair(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("full coalition: observable=yes")
        assert lines[1].startswith("sensor C1: observable=no")
        assert lines[2].startswith("sensor C2: observable=no")

    def test_mixed_sensor_set(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "2")
        assert code == 0
        verdicts = dict(
            line.split(":", 1) for line in out.strip().splitlines()
        )
        assert "observable=yes" in verdicts["full coalition"]
        assert "observable=yes" in verdicts["sensor C1"]
        assert "observable=no" in verdicts["sensor C2"]
        assert "observable=no" in verdicts["sensor C4"]

    def test_single_state_single_sensor(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {
                "state_matrix": [[1.0]],
                "sensors": [{"name": "only", "row": [1.0]}],
                "horizon_samples": 1,
            },
        )
        code, out, _ = run(capsys, "check", "--model", path)
        assert code == 0
        assert "full coalition: observable=yes" in out

    def test_unobservable_model_exits_one(self, tmp_path, capsys):
        path = write_model(tmp_path, self.BLIND)
        code, out, _ = run(capsys, "check", "--model", path)
        assert code == 1
        assert "full coalition: observable=no" in out

    def test_sensors_reaching_no_state(self, tmp_path, capsys):
        # all rows +-0.0: the bank forms no outer product, and every value,
        # verdict and axiom reads as two dummy sensors of a zero Gramian
        path = write_model(
            tmp_path,
            {
                "state_matrix": [[0.5, 1.0, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 0.7]],
                "sensors": [
                    {"name": "a", "row": [0.0, 0.0, 0.0]},
                    {"name": "b", "row": [0.0, -0.0, 0.0]},
                ],
                "horizon_samples": 50,
            },
        )
        code, out, err = run(capsys, "check", "--model", path)
        assert (code, err) == (1, "")
        assert out == (
            "full coalition: observable=no  min_eigenvalue=0  trace=0\n"
            "sensor a: observable=no  min_eigenvalue=0  trace=0\n"
            "sensor b: observable=no  min_eigenvalue=0  trace=0\n"
        )
        for metric in ("trace", "min-eig"):
            code, out, err = run(capsys, "analyze", "--model", path, "--metric", metric)
            assert (code, err) == (0, "")
            assert out.splitlines()[4:] == [
                f"a       {metric:<14s}  0                 0",
                f"b       {metric:<14s}  0                 0",
                "",
                "grand value:         0",
                "efficiency residual: 0",
                "fully observable:    no",
                "axioms:              pass "
                "(symmetric pairs: (a, b); dummy sensors: a, b)",
            ]

    def test_module_process_exits_with_the_check_status(self, tmp_path):
        # python -m sensor_shapley.cli hands main's code to the process
        blind = write_model(tmp_path, self.BLIND)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for source, want in ((["--scenario", "1"], 0), (["--model", blind], 1)):
            child = subprocess.run(
                [sys.executable, "-m", "sensor_shapley.cli", "check", *source],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert child.returncode == want, child.stderr
            assert child.stdout.startswith("full coalition: observable=")


class TestEmitScenarios:
    def test_writes_parseable_fixtures(self, tmp_path, capsys):
        code, out, _ = run(capsys, "emit-scenarios", "--dir", str(tmp_path))
        assert code == 0
        for sid in (1, 2):
            path = tmp_path / f"scenario{sid}.json"
            assert path.exists()
            assert str(path) in out
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["horizon_samples"] == 10

    def test_unwritable_directory_exits_two(self, capsys):
        code, _, err = run(
            capsys, "emit-scenarios", "--dir", "/nonexistent-dir/sub"
        )
        assert code == 2
        assert "error" in err


# JSON values for a mutated field: small integers (a horizon of 2^40 would
# run for hours), one beyond the float range, floats with their non-finite
# tokens, text with control characters, and shallow arrays and objects.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
field_names = st.sampled_from(["name", "row", "state_matrix", "sensors"]) | st.text(
    max_size=4
)


@st.composite
def near_valid_documents(draw):
    """A valid two-sensor document with one change, as JSON text: a field
    set to a JSON value or removed, a matrix or row entry set to a float or
    a JSON value, a name set to any text, or another horizon."""
    doc = {
        "name": "plant",
        "state_matrix": [[0.9, 0.2], [0.0, 0.5]],
        "sensors": [{"name": "a", "row": [1.0, 0.0]}, {"name": "b", "row": [0.0, 1.0]}],
        "horizon_samples": 4,
    }
    target = draw(st.sampled_from([doc, *doc["sensors"]]))
    change = draw(st.sampled_from(["set", "remove", "entry", "name", "horizon"]))
    if change == "set":
        target[draw(field_names | st.sampled_from(list(target)))] = draw(json_values)
    elif change == "remove":
        del target[draw(st.sampled_from(list(target)))]
    elif change == "entry":
        row = target.get("row") or doc["state_matrix"][draw(st.integers(0, 1))]
        row[draw(st.integers(0, 1))] = draw(st.floats() | json_values)
    elif change == "name":
        target["name"] = draw(st.text(max_size=6))
    else:
        doc["horizon_samples"] = draw(st.integers(-1, 40))
    return json.dumps(doc)


# any control character but the line break that ends each line
STRAY_CONTROL = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f]")


class TestCommandLineContract:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(text=near_valid_documents())
    def test_every_command_exits_with_a_code_and_clean_streams(
        self, tmp_path_factory, text
    ):
        # analyze with either metric or sampled, and check: the exit code is
        # one of 0-4, an error (2-4) is one stderr line and no stdout, and no
        # stream carries a control character beyond its line breaks
        path = tmp_path_factory.getbasetemp() / "contract.json"
        path.write_text(text, encoding="utf-8")
        for command in (
            ["analyze", "--metric", "trace"],
            ["analyze", "--metric", "min-eig"],
            ["analyze", "--sample", "3"],
            ["check"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--model", str(path)])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2, 3, 4), (command, code)
            if code >= 2:
                assert out == "" and err.endswith("\n") and err.count("\n") == 1, (
                    command, err
                )
            assert not STRAY_CONTROL.search(out + err), (command, out, err)
