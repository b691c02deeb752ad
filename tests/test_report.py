import json

import numpy as np
import pytest

from sensor_shapley import (
    LtiModel,
    Sensor,
    ValueFunctionKind,
    parse_model_document,
    render_json,
    render_model_document,
    render_table,
    shapley_exact,
    shapley_sampled,
    verify_axioms,
)
from sensor_shapley.report import ModelDocument, ModelDocumentError
from sensor_shapley.scenarios import emit_scenarios, scenario_document

from conftest import attribution_corpus

MIN_EIG = ValueFunctionKind.MIN_EIGENVALUE


def valid_payload():
    return {
        "name": "demo",
        "state_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "sensors": [
            {"name": "a", "row": [1.0, 1.0]},
            {"name": "b", "row": [1.0, -1.0]},
        ],
        "horizon_samples": 10,
    }


class TestParseModelDocument:
    def test_round_trip_scenarios(self):
        for sid in (1, 2):
            doc = scenario_document(sid)
            reparsed = parse_model_document(render_model_document(doc))
            assert reparsed.name == doc.name
            np.testing.assert_array_equal(
                reparsed.model.state_matrix, doc.model.state_matrix
            )
            assert reparsed.model.horizon_samples == doc.model.horizon_samples
            for got, want in zip(reparsed.model.sensors, doc.model.sensors):
                assert got.name == want.name
                np.testing.assert_array_equal(got.row, want.row)

    def test_round_trip_random_models(self):
        for i, model in enumerate(attribution_corpus(20, seed=404)):
            doc = ModelDocument(f"m{i}", model)
            reparsed = parse_model_document(render_model_document(doc))
            np.testing.assert_array_equal(
                reparsed.model.state_matrix, model.state_matrix
            )
            for got, want in zip(reparsed.model.sensors, model.sensors):
                np.testing.assert_array_equal(got.row, want.row)

    def test_name_is_optional(self):
        payload = valid_payload()
        del payload["name"]
        doc = parse_model_document(json.dumps(payload))
        assert doc.name is None

    def test_parse_model_returns_model(self):
        model = parse_model_document(json.dumps(valid_payload())).model
        assert model.sensor_count == 2
        assert model.horizon_samples == 10

    def test_syntax_error_reports_location(self):
        with pytest.raises(ModelDocumentError, match="syntax") as exc:
            parse_model_document('{"state_matrix": [[1]]')
        assert str(exc.value).startswith("model document syntax error")
        assert "line" in str(exc.value)

    def test_nonstandard_json_constants_rejected(self):
        payload = json.dumps(valid_payload()).replace("10", "NaN")
        with pytest.raises(ModelDocumentError, match="syntax"):
            parse_model_document(payload)

    @pytest.mark.parametrize(
        "mutate, location",
        [
            (lambda d: d.update(extra=1), "unknown field"),
            (lambda d: d.pop("sensors"), "missing required field"),
            (lambda d: d.update(horizon_samples=0), "horizon_samples"),
            (lambda d: d.update(horizon_samples=2.5), "horizon_samples"),
            (lambda d: d.update(horizon_samples=True), "horizon_samples"),
            (lambda d: d.update(state_matrix=[[1.0, 0.0], [1.0]]), "ragged"),
            (lambda d: d.update(state_matrix=[["x", 0.0], [0.0, 1.0]]), "number"),
            (lambda d: d.update(state_matrix=[]), "state_matrix"),
            (lambda d: d["sensors"][0].update(gain=2.0), "unknown field"),
            (lambda d: d["sensors"][0].pop("row"), "missing required field"),
            (lambda d: d["sensors"][0].update(name=""), "non-empty string"),
            (lambda d: d.update(name=7), "string"),
            (lambda d: d.update(horizon_samples=10**400), "horizon_samples"),
            (
                lambda d: d.update(sensors={}),
                r"at sensors: expected an array of sensor objects$",
            ),
            (
                lambda d: d["sensors"].__setitem__(0, [1.0, 1.0]),
                r"at sensors\[0\]: expected a sensor object$",
            ),
            (
                lambda d: d["sensors"][0].update(row=[]),
                r"at sensors\[0\]\.row: expected a non-empty array of numbers$",
            ),
        ],
    )
    def test_schema_violations(self, mutate, location):
        payload = valid_payload()
        mutate(payload)
        with pytest.raises(ModelDocumentError, match=location) as exc:
            parse_model_document(json.dumps(payload))
        assert str(exc.value).startswith("model document schema error")

    def test_document_must_be_an_object(self):
        with pytest.raises(ModelDocumentError) as exc:
            parse_model_document(json.dumps([valid_payload()]))
        assert str(exc.value).startswith("model document schema error")
        assert str(exc.value) == (
            "model document schema error at document: expected a JSON object"
        )

    @pytest.mark.parametrize(
        "field, location", [("horizon_samples", "document"), ("row", "sensors[1]")]
    )
    def test_repeated_field_rejected_at_its_object(self, field, location):
        # the field given twice in its last object; json.loads alone would
        # keep the second value
        text = json.dumps(valid_payload())
        last = text.rindex(f'"{field}"')
        with pytest.raises(ModelDocumentError) as exc:
            parse_model_document(f'{text[:last]}"{field}": 3, {text[last:]}')
        assert str(exc.value) == (
            f"model document schema error at {location}: duplicate field(s): {field}"
        )

    @pytest.mark.parametrize(
        "name",
        ["de\nmo", "\x1b[2Jdemo", "de\x7fmo", "demo\x85"],
        ids=["line-feed", "escape", "delete", "next-line"],
    )
    def test_document_name_with_control_character_rejected(self, name):
        payload = valid_payload()
        payload["name"] = name
        with pytest.raises(ModelDocumentError) as exc:
            parse_model_document(json.dumps(payload))
        assert str(exc.value) == (
            f"model document schema error at name: control character in {name!r}"
        )

    def test_unknown_field_with_control_character_is_quoted(self):
        # an escape sequence and a line break in a field name: quoted, so the
        # message is one line with no escape; a plain unknown name stays bare
        payload = valid_payload()
        payload["sensors"][0]["g\u001b[31mx\ny"] = 1.0
        payload["sensors"][0]["gain"] = 2.0
        with pytest.raises(ModelDocumentError) as exc:
            parse_model_document(json.dumps(payload))
        assert str(exc.value) == (
            "model document schema error at sensors[0]: "
            "unknown field(s): 'g\\x1b[31mx\\ny', gain"
        )

    def test_cross_field_mismatch_is_validation_error(self):
        payload = valid_payload()
        payload["sensors"][0]["row"] = [1.0, 0.0, 3.0]
        with pytest.raises(ModelDocumentError, match="row length mismatch") as exc:
            parse_model_document(json.dumps(payload))
        assert str(exc.value).startswith("model document validation error")

    def test_non_square_state_matrix_is_validation_error(self):
        payload = valid_payload()
        payload["state_matrix"] = [[1.0, 0.0]]
        payload["sensors"] = [{"name": "a", "row": [1.0, 0.0]}]
        with pytest.raises(ModelDocumentError, match="square") as exc:
            parse_model_document(json.dumps(payload))
        assert str(exc.value).startswith("model document validation error")


def exact_report(model, name, kind=MIN_EIG, observable=True):
    # the arguments render_json and render_table take for an exact result
    result = shapley_exact(model, kind)
    return name, result, observable, verify_axioms(result)


class TestReportDocument:
    def test_shares_sum_to_one(self, scenario2_model):
        payload = json.loads(render_json(*exact_report(scenario2_model, "s2")))
        shares = [row["share_of_total"] for row in payload["per_sensor"]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_share_omitted_when_grand_value_is_zero(self):
        model = LtiModel(
            np.eye(2), (Sensor("a", [1.0, 0.0]), Sensor("b", [2.0, 0.0])), 4
        )
        args = exact_report(model, "blind", observable=False)
        payload = json.loads(render_json(*args))
        assert payload["grand_value"] == 0.0
        assert all("share_of_total" not in row for row in payload["per_sensor"])

    def test_json_layout_is_stable(self, scenario1_model):
        payload = json.loads(render_json(*exact_report(scenario1_model, "s1")))
        assert list(payload) == [
            "model_name",
            "metric",
            "horizon_samples",
            "method",
            "observable",
            "grand_value",
            "efficiency_residual",
            "per_sensor",
            "axiom_report",
        ]
        assert list(payload["per_sensor"][0]) == [
            "name",
            "standalone",
            "shapley",
            "share_of_total",
        ]
        assert payload["method"] == {"kind": "exact"}
        assert list(payload["axiom_report"]) == [
            "efficiency",
            "symmetric_pairs",
            "dummy_sensors",
            "exhaustive",
            "passed",
        ]

    def test_json_preserves_full_float_precision(self, scenario2_model):
        name, result, observable, axioms = exact_report(scenario2_model, "s2")
        payload = json.loads(render_json(name, result, observable, axioms))
        rows = payload["per_sensor"]
        assert [row["name"] for row in rows] == list(result.sensor_names)
        for got, standalone, shapley in zip(
            rows, result.standalone_values, result.shapley_values
        ):
            assert got["shapley"] == shapley  # exact round trip
            assert got["standalone"] == standalone
            assert got["share_of_total"] == shapley / result.grand_value

    def test_table_rendering(self, scenario1_model):
        text = render_table(*exact_report(scenario1_model, "s1"))
        assert "Sensor" in text
        assert "Value Function" in text
        assert "Standalone Value" in text
        assert "Shapley Value" in text
        assert "C1" in text and "C2" in text
        assert "symmetric pairs: (C1, C2)" in text

    def test_numpy_integers_render_as_python_integers(self, scenario2_model):
        # validation accepts any Integral horizon; the model and the sampled
        # method keep it as int, so the bytes equal those of a Python-int run
        state, sensors = scenario2_model.state_matrix, scenario2_model.sensors
        reports = []
        for h, n, seed in ((5, 16, 3), (np.int64(5), np.int64(16), np.int64(3))):
            model = LtiModel(state, sensors, h)
            sampled = shapley_sampled(model, MIN_EIG, n, seed)
            reports.append(
                (
                    render_json(*exact_report(model, "s2")),
                    render_json("s2", sampled, True, None),
                    render_model_document(ModelDocument("s2", model)),
                )
            )
        assert reports[0] == reports[1]

    def test_sampled_report_has_no_axioms_and_records_method(self, scenario2_model):
        result = shapley_sampled(scenario2_model, MIN_EIG, 64, seed=5)
        payload = json.loads(render_json("s2", result, True, None))
        assert payload["axiom_report"] is None
        assert payload["method"] == {
            "kind": "permutation-sampling",
            "num_permutations": 64,
            "seed": 5,
        }
        text = render_table("s2", result, True, None)
        assert "permutation-sampling" in text


class TestEmitScenarios:
    def test_unknown_scenario_id_rejected(self):
        with pytest.raises(ValueError) as exc:
            scenario_document(3)
        assert str(exc.value) == "unknown scenario id 3; expected one of (1, 2)"

    def test_written_files_parse_and_validate(self, tmp_path):
        paths = emit_scenarios(tmp_path)
        assert [p.name for p in paths] == ["scenario1.json", "scenario2.json"]
        for path, sid in zip(paths, (1, 2)):
            doc = parse_model_document(path.read_text(encoding="utf-8"))
            want = scenario_document(sid)
            assert doc.name == want.name
            np.testing.assert_array_equal(
                doc.model.state_matrix, want.model.state_matrix
            )
            assert doc.model.horizon_samples == 10

    def test_two_state_fixture_contents(self, tmp_path):
        paths = emit_scenarios(tmp_path)
        payload = json.loads(paths[0].read_text(encoding="utf-8"))
        assert payload["state_matrix"] == [[1.0, 0.0], [0.0, 1.0]]
        assert [s["row"] for s in payload["sensors"]] == [[1.0, 1.0], [1.0, -1.0]]

    def test_four_sensor_fixture_rows(self, tmp_path):
        paths = emit_scenarios(tmp_path)
        payload = json.loads(paths[1].read_text(encoding="utf-8"))
        assert [s["row"] for s in payload["sensors"]] == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
