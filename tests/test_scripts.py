"""The timing scripts run at small sizes and time what the package computes."""

import hashlib
import os
import subprocess
import sys
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


def load_time_passes():
    with mock.patch.dict(os.environ):  # the script sets BLAS thread counts
        return load_script("time_passes")


def exact_digest(model, kind):
    # the sha256 time_passes prints for an exact size: the table, then φ
    result = shapley_exact(model, kind)
    digest = hashlib.sha256(result.values_by_bitmask)
    digest.update(result.shapley_values)
    return digest.hexdigest()


@pytest.mark.parametrize("kind", list(ValueFunctionKind))
def test_time_exact_path_times_the_exact_passes(kind):
    script = load_time_passes()
    model = script.stable_model(np.random.default_rng(4), 4)
    *seconds, peak_mb, digest = script.timed_exact(kind, model)
    assert min(seconds) >= 0.0 and peak_mb >= 0.0
    assert digest == exact_digest(model, kind)


def test_time_coalition_sums_values_the_samplers_prefixes():
    script = load_time_passes()
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
    script = load_time_passes()
    model = script.orthogonal_model(3, 4, 20)
    bank_ms, peak_mb, digest = script.timed_bank(model)
    assert min(bank_ms, peak_mb) >= 0.0
    bank = per_sensor_gramians(model)
    assert digest == hashlib.sha256(bank.tobytes()).hexdigest()


def test_time_passes_runs_one_exact_size_from_the_command_line():
    script = load_time_passes()
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_passes.py"), "--size", "trace", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    assert line.startswith("trace   p=4 ")
    model = script.stable_model(np.random.default_rng(4), 4)
    assert line.split()[-1] == exact_digest(model, ValueFunctionKind.TRACE)


def test_readme_names_every_script():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    missing = [path.name for path in SCRIPTS.glob("*.py") if path.name not in readme]
    assert not missing


def test_count_lines_splits_every_line_of_each_module():
    script = load_script("count_lines")
    for path in sorted((SCRIPTS.parent / "src" / "sensor_shapley").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = script.count(text)
        assert sum(counts.values()) == len(text.splitlines()), path.name
        assert counts["code"] > 0, path.name
    sample = '"""Doc.\n\nMore."""\n\n# note\nx = 1  # trailing\n'
    assert script.count(sample) == {"code": 1, "docstring": 3, "comment": 1, "blank": 1}
