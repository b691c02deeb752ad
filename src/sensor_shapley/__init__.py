"""Fair per-sensor attribution of observability degree for discrete-time LTI
systems, via exact Shapley values over sensor coalitions.

The public surface: model types and validation (:mod:`~sensor_shapley.model`),
the per-sensor Gramian bank and verdict (:mod:`~sensor_shapley.gramian`),
coalition sums and degree metrics (:mod:`~sensor_shapley.metrics`), exact and
sampled Shapley attribution with axiom checks (:mod:`~sensor_shapley.shapley`),
and model-file parsing plus report rendering (:mod:`~sensor_shapley.report`).
The ``sensor-shapley`` command in :mod:`~sensor_shapley.cli` ties it together.
"""

from .gramian import (
    is_observable,
    per_sensor_gramians,
)
from .metrics import (
    ValueFunctionKind,
    coalition_values,
    evaluate,
    pack_masks,
)
from .model import (
    ENUMERATION_CAP,
    EnumerationCapExceeded,
    InvalidModel,
    LtiModel,
    Sensor,
)
from .report import (
    parse_model_document,
    render_json,
    render_model_document,
    render_table,
)
from .shapley import (
    AttributionMethod,
    AttributionResult,
    AxiomReport,
    shapley_exact,
    shapley_sampled,
    verify_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_CAP",
    "AttributionMethod",
    "AttributionResult",
    "AxiomReport",
    "EnumerationCapExceeded",
    "InvalidModel",
    "LtiModel",
    "Sensor",
    "ValueFunctionKind",
    "coalition_values",
    "evaluate",
    "is_observable",
    "pack_masks",
    "parse_model_document",
    "per_sensor_gramians",
    "render_json",
    "render_model_document",
    "render_table",
    "shapley_exact",
    "shapley_sampled",
    "verify_axioms",
]
