"""The benchmark's workloads: model sizes, the ``analyze`` calls of one op,
and the domain work an op does.

Each workload is dominated by a different layer of ``sensor_shapley``:

* ``exact-table`` builds the 2^p coalition value table (``metrics``) for
  both metrics, the paper's comparison, on a small state space and a short
  window, so the per-sensor Gramian bank is negligible.
* ``long-horizon`` has few sensors (a 2^8 table) but a long window on an
  orthogonal state matrix, so the bank's p*h propagation steps
  (``gramian``) dominate and table changes should not show.
* ``sampled-wide`` has too many sensors for exact enumeration and runs the
  permutation sampler (``shapley``), which evaluates scattered coalitions
  instead of sweeping a table.
"""

from __future__ import annotations

from dataclasses import dataclass

from models import ModelSpec


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ModelSpec
    # None for exact attribution; else the permutations per sampled op.
    permutations: int | None
    # Permutations per run of the untimed sampler-accuracy pass.
    accuracy_permutations: int
    # What work_per_s counts, and how much of it one op does (computed from
    # the input sizes, not measured).
    work_unit: str
    work_per_op: int

    @property
    def exact(self) -> bool:
        return self.permutations is None

    @property
    def metrics(self) -> tuple[str, ...]:
        # trace is additive, so sampling it has no variance to measure.
        return ("trace", "min-eig") if self.exact else ("min-eig",)

    def argvs(self, model_path: str, op_seed: int) -> list[list[str]]:
        """The ``analyze`` command lines that make up one op."""
        base = ["analyze", "--model", model_path, "--format", "json"]
        if self.exact:
            return [base + ["--metric", m] for m in self.metrics]
        return [base + ["--metric", "min-eig", "--sample", str(self.permutations),
                        "--seed", str(op_seed)]]


def _exact_table(p: int) -> Workload:
    return Workload("exact-table", ModelSpec(p, 6, 10, None), None, 200,
                    "coalition values", 2 * ((1 << p) - 1))


def _long_horizon(p: int, h: int) -> Workload:
    return Workload("long-horizon", ModelSpec(p, 24, h, 1.0), None, 100,
                    "sensor-samples", 2 * p * h)


def _sampled_wide(p: int, n: int) -> Workload:
    return Workload("sampled-wide", ModelSpec(p, 6, 10, None), n, n,
                    "permutation steps", n * p)


WORKLOADS = {
    w.name: w
    for w in (_exact_table(10), _long_horizon(8, 1000), _sampled_wide(40, 100))
}
