import importlib.util
import json
import warnings
from pathlib import Path

import pytest

from sensor_shapley import cli, gramian, model, report, shapley
from sensor_shapley.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regenerate_goldens.py"


def load_golden_script():
    spec = importlib.util.spec_from_file_location("regenerate_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The command line of each golden, as the script that writes them runs it.
GOLDENS = load_golden_script().GOLDENS


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
        assert [s["shapley"] for s in payload["per_sensor"]] == [
            3187.0, 295.0, 5312.0, 10.0,
        ]
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

    def test_golden_scenario_reports(self, capsys):
        for sid in (1, 2):
            golden = (GOLDEN_DIR / f"analyze_scenario{sid}.json").read_text(
                encoding="utf-8"
            )
            code, out, _ = run(
                capsys, "analyze", "--scenario", str(sid), "--format", "json"
            )
            assert code == 0
            assert out == golden

    @pytest.mark.parametrize(
        "golden, argv",
        [
            (name, argv)
            for name, argv in GOLDENS.items()
            # test_golden_scenario_reports covers these two.
            if name not in ("analyze_scenario1.json", "analyze_scenario2.json")
        ],
    )
    def test_golden_trace_and_sampled_reports(self, capsys, golden, argv):
        expected = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == expected

    def test_every_golden_file_has_a_command(self):
        assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == sorted(GOLDENS)


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
        counts = []
        for p in (3, 9):
            calls = counting(monkeypatch, model, "validate_model")
            calls += counting(monkeypatch, report, "validate_model")
            path = write_model(tmp_path, sensors_payload(p), f"p{p}.json")
            code, _, _ = run(capsys, "analyze", "--model", path, *extra)
            assert code == 0
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1] <= 3

    @pytest.mark.parametrize("extra", [[], ["--sample", "30"]])
    def test_bank_and_table_built_once(self, tmp_path, capsys, monkeypatch, extra):
        banks = counting(monkeypatch, shapley, "per_sensor_gramians")
        tables = counting(monkeypatch, shapley, "coalition_values")
        # the bank shares one power chain; neither it nor the verdict runs
        # the per-coalition oracle construction
        oracle = counting(monkeypatch, gramian, "_direct_sum")
        path = write_model(tmp_path, sensors_payload(5))
        code, _, _ = run(capsys, "analyze", "--model", path, *extra)
        assert code == 0
        assert len(banks) == 1 and len(tables) == 1 and not oracle


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

    def test_efficiency_violation_exits_four(self, capsys, monkeypatch):
        contract = shapley.shapley_from_table
        monkeypatch.setattr(
            shapley, "shapley_from_table", lambda table, p: contract(table, p) + 1.0
        )
        code, out, err = run(capsys, "analyze", "--scenario", "2")
        assert code == 4 and out == ""
        assert err == (
            "sensor-shapley: error: efficiency violated: Shapley values sum to "
            "6.476686980379149 but the grand value is 2.47668698037915\n"
        )

    def test_cap_exceeded_without_sample(self, tmp_path, capsys):
        payload = {
            "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "sensors": [
                {"name": f"s{i}", "row": [1.0, float(i)]} for i in range(25)
            ],
            "horizon_samples": 2,
        }
        path = write_model(tmp_path, payload)
        code, _, err = run(capsys, "analyze", "--model", path, "--metric", "trace")
        assert code == 3
        assert "shapley_sampled" in err or "sample" in err

    def test_cap_exceeded_resolved_by_sampling(self, tmp_path, capsys):
        payload = {
            "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "sensors": [
                {"name": f"s{i}", "row": [1.0, float(i)]} for i in range(25)
            ],
            "horizon_samples": 2,
        }
        path = write_model(tmp_path, payload)
        code, out, _ = run(
            capsys, "analyze", "--model", path, "--metric", "trace",
            "--format", "json", "--sample", "50",
        )
        assert code == 0
        assert len(json.loads(out)["per_sensor"]) == 25


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


class TestCheck:
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
        path = write_model(
            tmp_path,
            {
                "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
                "sensors": [{"name": "a", "row": [1.0, 0.0]}],
                "horizon_samples": 5,
            },
        )
        code, out, _ = run(capsys, "check", "--model", path)
        assert code == 1
        assert "full coalition: observable=no" in out


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
