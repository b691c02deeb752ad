"""Fair per-sensor attribution of observability degree for discrete-time LTI
systems, via exact Shapley values over sensor coalitions.

The public surface: model types and validation (:mod:`~sensor_shapley.model`),
observability matrices and Gramians (:mod:`~sensor_shapley.gramian`), the
degree metrics (:mod:`~sensor_shapley.metrics`), exact and sampled Shapley
attribution with axiom checks (:mod:`~sensor_shapley.shapley`), and model-file
parsing plus report rendering (:mod:`~sensor_shapley.report`). The
``sensor-shapley`` command in :mod:`~sensor_shapley.cli` ties it together.
"""

from .gramian import (
    coalition_gramians,
    gramian_direct,
    is_observable,
    observability_matrix,
    pack_masks,
    per_sensor_gramians,
)
from .metrics import (
    ValueFunctionKind,
    coalition_values,
    evaluate,
    value_table,
)
from .model import (
    ENUMERATION_CAP,
    EnumerationCapExceeded,
    LtiModel,
    Sensor,
    ValidationResult,
    require_valid,
    validate_model,
)
from .report import (
    ModelDocument,
    ModelDocumentError,
    ReportDocument,
    build_report,
    parse_model,
    parse_model_document,
    render_json,
    render_model_document,
    render_table,
)
from .scenarios import SCENARIO_IDS, emit_scenarios, scenario_document
from .shapley import (
    AttributionMethod,
    AttributionResult,
    AxiomReport,
    SensorAttribution,
    ShapleyWeights,
    shapley_exact,
    shapley_from_table,
    shapley_permutation_oracle,
    shapley_sampled,
    shapley_weight,
    verify_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_CAP",
    "SCENARIO_IDS",
    "AttributionMethod",
    "AttributionResult",
    "AxiomReport",
    "EnumerationCapExceeded",
    "LtiModel",
    "ModelDocument",
    "ModelDocumentError",
    "ReportDocument",
    "Sensor",
    "SensorAttribution",
    "ShapleyWeights",
    "ValidationResult",
    "ValueFunctionKind",
    "build_report",
    "coalition_gramians",
    "coalition_values",
    "emit_scenarios",
    "evaluate",
    "gramian_direct",
    "is_observable",
    "observability_matrix",
    "pack_masks",
    "parse_model",
    "parse_model_document",
    "per_sensor_gramians",
    "render_json",
    "render_model_document",
    "render_table",
    "require_valid",
    "scenario_document",
    "shapley_exact",
    "shapley_from_table",
    "shapley_permutation_oracle",
    "shapley_sampled",
    "shapley_weight",
    "validate_model",
    "value_table",
    "verify_axioms",
]
