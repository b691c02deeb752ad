"""The timing scripts run at small sizes and time what the package computes."""

import hashlib
import os
from unittest import mock

import pytest

from sensor_shapley import ValueFunctionKind, shapley_exact

from conftest import load_script


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
