"""Built-in example models exercising the two canonical sensor regimes.

Scenario 1 is a pair of complementary sensors on static two-state dynamics:
each sensor alone loses observability, together they restore it, so any
standalone ranking misses their value entirely.

Scenario 2 is a three-state chain with four sensors: one sufficient on its
own (C1), two insufficient alone (C2, C4), and one redundant combination
sensor (C3). It separates metrics that credit interaction effects from
metrics that do not.

Both use a 10-sample window.
"""

from __future__ import annotations

from pathlib import Path

from .model import LtiModel, Sensor
from .report import ModelDocument, render_model_document

__all__ = ["SCENARIO_IDS", "emit_scenarios", "scenario_document"]

# Each scenario's state matrix and its sensors' rows, by id.
_SCENARIOS = {
    1: ([[1.0, 0.0], [0.0, 1.0]], {"C1": [1.0, 1.0], "C2": [1.0, -1.0]}),
    2: (
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        {
            "C1": [1.0, 0.0, 0.0],
            "C2": [0.0, 1.0, 0.0],
            "C3": [1.0, 1.0, 0.0],
            "C4": [0.0, 0.0, 1.0],
        },
    ),
}

SCENARIO_IDS = tuple(_SCENARIOS)


def scenario_document(scenario_id: int) -> ModelDocument:
    """One of the bundled example models, by id."""
    if scenario_id in _SCENARIOS:
        state, rows = _SCENARIOS[scenario_id]
        sensors = tuple(Sensor(name, row) for name, row in rows.items())
        return ModelDocument(f"scenario{scenario_id}", LtiModel(state, sensors, 10))
    raise ValueError(f"unknown scenario id {scenario_id}; expected one of {SCENARIO_IDS}")


def emit_scenarios(directory: Path) -> list[Path]:
    """Write scenario1.json and scenario2.json into ``directory``."""
    directory = Path(directory)
    written = []
    for scenario_id in SCENARIO_IDS:
        path = directory / f"scenario{scenario_id}.json"
        path.write_text(
            render_model_document(scenario_document(scenario_id)), encoding="utf-8"
        )
        written.append(path)
    return written
