"""Span tracing of the layers of ``sensor_shapley``, from outside the package.

``Tracer.install`` replaces each traced public function, at the module
attribute its caller looks it up through, with a wrapper that records a
span (name, start, end, parent). Nothing under ``src/`` changes, and the
originals are restored by ``Tracer.uninstall``. An inner public call made
while an outer one runs becomes a child span, so a layer's self time is its
span minus the spans of the inner calls, timed on the same input in the same
call. Time in no span is the ``cli`` layer's own.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module the call is looked up in, attribute, span name). The span name's
# prefix is the layer the callee belongs to.
CALL_SITES = (
    ("sensor_shapley.cli", "parse_model_document", "report.parse"),
    ("sensor_shapley.report", "validate_model", "model.validate"),
    ("sensor_shapley.model", "validate_model", "model.validate"),
    ("sensor_shapley.cli", "shapley_exact", "shapley.exact"),
    ("sensor_shapley.cli", "shapley_sampled", "shapley.sampled"),
    ("sensor_shapley.cli", "verify_axioms", "shapley.axioms"),
    ("sensor_shapley.shapley", "shapley_from_table", "shapley.contract"),
    ("sensor_shapley.shapley", "value_table", "metrics.table"),
    ("sensor_shapley.shapley", "per_sensor_gramians", "gramian.bank"),
    ("sensor_shapley.metrics", "per_sensor_gramians", "gramian.bank"),
    ("sensor_shapley.cli", "gramian_direct", "gramian.verdict"),
    ("sensor_shapley.cli", "is_observable", "gramian.verdict"),
    ("sensor_shapley.cli", "build_report", "report.render"),
    ("sensor_shapley.cli", "render_json", "report.render"),
)

LAYERS = ("cli", "report", "model", "gramian", "metrics", "shapley")


@dataclass
class Span:
    op: int
    ident: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class OpTrace:
    """Spans of one traced op, aggregated by span name."""

    wall: float
    scale: float  # CPU-speed factor of the op, see speed.py
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    inclusive: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    top_level: float = 0.0

    def layer_self(self, layer: str) -> float:
        if layer == "cli":
            return self.wall - self.top_level
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))


class Tracer:
    """Records spans in memory; one op at a time, single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def install(self) -> None:
        for module_name, attr, span_name in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(self._op, len(self.spans), parent.ident if parent else None, name,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration

        return traced

    def start_op(self, op: int) -> int:
        """Mark the start of an op; returns the index of its first span."""
        self._op = op
        return len(self.spans)

    def summarize(self, first_span: int, wall: float, scale: float) -> OpTrace:
        """Aggregate the spans recorded since ``first_span`` for one op."""
        trace = OpTrace(wall, scale)
        for span in self.spans[first_span:]:
            trace.self_time[span.name] += span.self_time
            trace.inclusive[span.name] += span.duration
            trace.calls[span.name] += 1
            if span.parent is None:
                trace.top_level += span.duration
        return trace
