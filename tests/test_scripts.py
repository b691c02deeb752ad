"""The timing scripts run at small sizes and time what the package computes;
the same-bits corpus reads and writes the manifest of the running BLAS core;
the repository's pytest settings report every test after a failing one."""

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
    gramian,
    metrics,
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
    *seconds, table_peak_mb, peak_mb, digest = script.timed_exact(kind, model)
    assert len(seconds) == 3 and min(seconds) >= 0.0 and peak_mb >= 0.0
    # the table's peak holds at least the 16 values it returns
    assert table_peak_mb * 2**20 >= 16 * 8
    assert digest == exact_digest(model, kind)


def test_time_coalition_sums_values_the_samplers_prefixes(monkeypatch):
    script = load_time_passes()
    p = 5
    bank, orderings, masks = script.prefix_batch(p)
    # the distinct prefixes shapley_sampled values for the same orderings
    singles = pack_masks(np.eye(p, dtype=bool))
    prefixes = np.bitwise_or.accumulate(singles[orderings], axis=1)
    want, _ = _unique_rows(prefixes.reshape(-1, singles.shape[1]))
    np.testing.assert_array_equal(masks, want)
    # the sums are timed over the lower triangles min-eig values read
    summed = []
    sums = metrics._coalition_sums
    monkeypatch.setattr(
        metrics, "_coalition_sums", lambda *args: summed.append(args) or sums(*args)
    )
    count, sums_ms, values_ms, peak_mb, digest = script.timed_batch(p)
    assert count == len(want) and min(sums_ms, values_ms, peak_mb) >= 0.0
    read = bank.reshape(p, -1)[:, metrics._read(ValueFunctionKind.MIN_EIGENVALUE, 6)]
    assert summed and all(entries.tobytes() == read.tobytes() for entries, _ in summed)
    values = coalition_values(bank, ValueFunctionKind.MIN_EIGENVALUE, want)
    assert digest == hashlib.sha256(values.tobytes()).hexdigest()


def test_time_bank_hashes_the_bank_of_its_model(monkeypatch):
    script = load_time_passes()
    model = script.orthogonal_model(3, 4, 20)
    # 15 timed calls of 15, 14, ..., 1 ms: quartiles 4 and 12, median 8
    assert script.REPEATS == 15
    seconds = iter(range(15, 0, -1))
    monkeypatch.setattr(script, "timed", lambda call: (call(), next(seconds) / 1e3))
    bank_ms, peak_mb, excess_kib, digest = script.timed_bank(model)
    assert bank_ms == pytest.approx([4.0, 8.0, 12.0])
    assert peak_mb >= 0.0
    bank = per_sensor_gramians(model)
    assert digest == hashlib.sha256(bank.tobytes()).hexdigest()
    # the excess the memory tests bound: the peak less the bank and the budget
    budget = gramian._BANK_BYTES
    assert excess_kib == pytest.approx((peak_mb * 2**20 - bank.nbytes - budget) / 1024)
    assert excess_kib <= 16


def test_time_bank_block_model_has_sensors_on_one_or_two_blocks():
    script = load_time_passes()
    model = script.block_model(8, 24, 1000)
    a, rows = model.state_matrix, np.array([s.row for s in model.sensors])
    assert not np.any(a[~np.kron(np.eye(12, dtype=bool), np.ones((2, 2), bool))])
    blocks = np.any(rows.reshape(8, 12, 2) != 0, axis=2).sum(axis=1)
    assert set(blocks) == {1, 2}


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


@pytest.mark.parametrize("coretype", [None, "Haswell"])
@pytest.mark.parametrize(
    "core, manifest",
    [
        ("SkylakeX", "same_bits_manifest.txt"),
        ("Haswell", "same_bits_manifest.Haswell.txt"),
        ("unknown", "same_bits_manifest.unknown.txt"),
    ],
)
def test_same_bits_manifest_follows_the_running_blas_core(
    monkeypatch, core, manifest, coretype
):
    # the running core alone picks the manifest, whether OPENBLAS_CORETYPE
    # is set or not
    corpus = load_script("same_bits_corpus")
    monkeypatch.setattr(corpus, "blas_core", lambda: core)
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    if coretype:
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    path = corpus.manifest_path()
    assert path == corpus.MANIFEST.with_name(manifest)
    if core == "unknown":
        with pytest.raises(FileNotFoundError) as exc:
            corpus.read_manifest(path)
        assert str(exc.value) == (
            f"no same-bits manifest for BLAS core unknown ({manifest}); "
            "same_bits_manifest.txt records BLAS core SkylakeX"
        )
    else:
        header, _ = corpus.read_manifest(path)
        assert f"# blas core {core}" in header


@pytest.mark.parametrize("core", ["SkylakeX", "Haswell"])
def test_same_bits_corpus_writes_the_goldens_with_the_default_manifest_only(
    tmp_path, monkeypatch, core
):
    corpus = load_script("same_bits_corpus")
    monkeypatch.setattr(corpus, "MANIFEST", tmp_path / "same_bits_manifest.txt")
    corpus.MANIFEST.write_text("# blas core SkylakeX\n", encoding="utf-8")
    monkeypatch.setattr(corpus, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(corpus, "blas_core", lambda: core)
    runs = [("golden-a.txt", "0", "report\n", ""), ("p01-check", "1", "", "no\n")]
    monkeypatch.setattr(corpus, "outcomes", lambda directory: runs)
    corpus.write_manifest()
    lines = corpus.manifest_path().read_text(encoding="utf-8").splitlines()
    assert lines == corpus.header() + [corpus.manifest_line(*run) for run in runs]
    golden = tmp_path / "a.txt"
    if core == "SkylakeX":
        assert golden.read_text(encoding="utf-8") == "report\n"
    else:
        assert not golden.exists()


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # hypothesis's failure report must not end the run under the repository's
    # warnings-as-errors settings: the test after it still runs
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(derandomize=True, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert False\n\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SCRIPTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_two.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
