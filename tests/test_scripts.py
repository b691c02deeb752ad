"""The timing scripts run at small sizes and time what the package computes."""

import hashlib
import os
from unittest import mock

import numpy as np
import pytest

from sensor_shapley import (
    ValueFunctionKind,
    coalition_values,
    pack_masks,
    per_sensor_gramians,
    shapley_exact,
)
from sensor_shapley.shapley import _unique_rows

from conftest import SCRIPTS, load_script


@pytest.mark.parametrize("kind", list(ValueFunctionKind))
def test_time_exact_path_times_the_exact_passes(kind):
    with mock.patch.dict(os.environ):  # the script sets BLAS thread counts
        script = load_script("time_exact_path")
    model = script.seeded_model(4)
    *seconds, peak_mb, digest = script.timed_passes(kind, model)
    assert min(seconds) >= 0.0 and peak_mb >= 0.0
    result = shapley_exact(model, kind)
    want = hashlib.sha256(result.values_by_bitmask)
    want.update(result.shapley_values)
    assert digest == want.hexdigest()


def test_time_coalition_sums_values_the_samplers_prefixes():
    script = load_script("time_coalition_sums")
    p = 5
    bank, orderings, masks = script.prefix_batch(p)
    # the distinct prefixes shapley_sampled values for the same orderings
    singles = pack_masks(np.eye(p, dtype=bool))
    prefixes = np.bitwise_or.accumulate(singles[orderings], axis=1)
    want, _ = _unique_rows(prefixes.reshape(-1, singles.shape[1]))
    np.testing.assert_array_equal(masks, want)
    count, sums_ms, values_ms, peak_mb, digest = script.timed_batch(p)
    assert count == len(want) and min(sums_ms, values_ms, peak_mb) >= 0.0
    values = coalition_values(bank, ValueFunctionKind.MIN_EIGENVALUE, want)
    assert digest == hashlib.sha256(values.tobytes()).hexdigest()


def test_time_bank_hashes_the_bank_of_its_model():
    with mock.patch.dict(os.environ):  # the script sets BLAS thread counts
        script = load_script("time_bank")
    model = script.seeded_model(3, 4, 20)
    bank_ms, peak_mb, digest = script.timed_bank(model)
    assert min(bank_ms, peak_mb) >= 0.0
    bank = per_sensor_gramians(model)
    assert digest == hashlib.sha256(bank.tobytes()).hexdigest()


def test_count_lines_splits_every_line_of_each_module():
    script = load_script("count_lines")
    for path in sorted((SCRIPTS.parent / "src" / "sensor_shapley").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = script.count(text)
        assert sum(counts.values()) == len(text.splitlines()), path.name
        assert counts["code"] > 0, path.name
    sample = '"""Doc.\n\nMore."""\n\n# note\nx = 1  # trailing\n'
    assert script.count(sample) == {"code": 1, "docstring": 3, "comment": 1, "blank": 1}
