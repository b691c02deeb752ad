"""Seeded model generator for the benchmark workloads.

Every model has a block-diagonal state matrix made of 2x2 scaled rotations,
and every sensor row is non-zero on the coordinates of one or two blocks.
A sensor therefore sees only the blocks it covers, so small coalitions are
unobservable (minimum eigenvalue exactly 0) while the full set, which covers
every block, is observable. That is the complementary-sensor regime the
min-eig metric is meant to credit.

With ``radius=1.0`` every block is a pure rotation, so the state matrix is
orthogonal: marginally stable, and nothing overflows at long horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sensor_shapley.model import LtiModel, Sensor, validate_model
from sensor_shapley.report import ModelDocument, render_model_document

import reference

# Margin, relative to the largest eigenvalue, by which the full set's
# minimum eigenvalue must clear zero; far above the program's 1e-9 verdict
# threshold, so the verdict cannot flip on rounding.
OBSERVABLE_MARGIN = 1e-6
MAX_DRAWS = 100


@dataclass(frozen=True)
class ModelSpec:
    """Sizes of one generated model."""

    sensors: int
    states: int
    horizon: int
    radius: float | None  # None: each block draws a radius in [0.85, 0.97]

    def __post_init__(self):
        if self.states % 2 or self.states < 2:
            raise ValueError("states must be a positive even number")
        if 2 * self.sensors < self.states // 2:
            raise ValueError("too few sensors to cover every block")


@dataclass(frozen=True)
class GeneratedModel:
    """A model as its JSON document, and its per-sensor Gramians as the
    reference computes them."""

    text: str
    gram: np.ndarray


def _state_matrix(rng: np.random.Generator, spec: ModelSpec) -> np.ndarray:
    blocks = spec.states // 2
    a = np.zeros((spec.states, spec.states))
    angles = rng.uniform(0.3, 2.8, size=blocks)
    for b in range(blocks):
        r = spec.radius if spec.radius is not None else rng.uniform(0.85, 0.97)
        c, s = np.cos(angles[b]), np.sin(angles[b])
        a[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = r * np.array([[c, -s], [s, c]])
    return a


def _cover(rng: np.random.Generator, spec: ModelSpec) -> list[list[int]]:
    # The first sensors tile every block, two at a time; the rest each cover
    # one or two blocks at random. Sensor order is then shuffled.
    blocks = spec.states // 2
    order = [int(b) for b in rng.permutation(blocks)]
    covers = [order[i : i + 2] for i in range(0, blocks, 2)]
    while len(covers) < spec.sensors:
        k = int(rng.integers(1, 3)) if blocks > 1 else 1
        covers.append([int(b) for b in rng.choice(blocks, size=k, replace=False)])
    return [covers[i] for i in rng.permutation(len(covers))]


def _rows(rng: np.random.Generator, spec: ModelSpec) -> np.ndarray:
    rows = np.zeros((spec.sensors, spec.states))
    for i, blocks in enumerate(_cover(rng, spec)):
        for b in blocks:
            magnitude = rng.uniform(0.5, 1.5, size=2)
            sign = rng.choice([-1.0, 1.0], size=2)
            rows[i, 2 * b : 2 * b + 2] = sign * magnitude
    return rows


def generate(rng: np.random.Generator, spec: ModelSpec, name: str) -> GeneratedModel:
    """Draw one valid model whose full sensor set is observable.

    Raises ``RuntimeError`` if no draw qualifies, which a sound spec never
    triggers.
    """
    for _ in range(MAX_DRAWS):
        a = _state_matrix(rng, spec)
        rows = _rows(rng, spec)
        model = LtiModel(
            a,
            tuple(Sensor(f"s{i}", row) for i, row in enumerate(rows)),
            spec.horizon,
        )
        if not validate_model(model).ok:
            continue
        gram = reference.sensor_gramians(a, rows, spec.horizon)
        eigs = np.linalg.eigvalsh(gram.sum(0))
        if eigs[0] > OBSERVABLE_MARGIN * eigs[-1]:
            text = render_model_document(ModelDocument(name, model))
            return GeneratedModel(text, gram)
    raise RuntimeError(f"no observable model drawn for {spec} in {MAX_DRAWS} tries")
