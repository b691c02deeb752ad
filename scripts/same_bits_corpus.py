#!/usr/bin/env python3
"""Rewrite the same-bits manifest of a fixed corpus of CLI runs, and the
golden files that hold the stdout of its pinned invocations.

The corpus is about 200 seeded in-process ``sensor_shapley.cli.main``
invocations:

* ``analyze`` as JSON and table, trace and min-eig, exact and sampled, on
  seeded models with p = 1..13 sensors, rows scaled over 1e-3..1e3, exact
  zero entries, an all-zero sensor and a duplicated sensor row, and exact
  trace at p = 16;
* p = 25, 40 and 70 sampled, and refused by the exact enumeration cap;
* 13 sensors on 24 states, where the exact table adds high members to a
  partial table;
* windows of 1000 samples on 24 states and 6000 on 3, whose banks take many
  blocks of samples;
* ``check``, ``--horizon`` and ``--tolerance``;
* every schema and validation violation, flag errors, unstable dynamics and
  sums near the float range;
* last, the ``GOLDENS``: both scenarios' reports and ``check`` output, and
  report shapes the scenarios do not reach, each as ``golden-<file>``.

Each manifest line holds one invocation's id, its exit code (or the name of
an exception that escaped ``main``) and the sha256 of its standard output and
of its standard error, with any warning appended to the latter. The header
records the numpy and BLAS versions and the CPU kernel (core) OpenBLAS
picked at load time, since the bits of the eigen-solves and of ``np.dot``
depend on all three.

Each BLAS core has its own manifest: ``tests/same_bits_manifest.txt`` for
the core its header records, ``tests/same_bits_manifest.<core>.txt`` (such
as ``Haswell``) for any other, and a run uses the one of the core OpenBLAS
runs on. Writing the default manifest also writes each ``golden-<file>``
id's stdout to ``tests/golden/<file>``. ``tests/test_same_bits.py`` re-runs
the corpus and names every id whose line differs, on this run's core and on
Haswell. After a deliberate behaviour change, rewrite both manifests from the
repository root, read what changed with ``git diff tests/golden``, and list
the changed ids in CHANGES.md:

    PYTHONPATH=src python3 scripts/same_bits_corpus.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python3 scripts/same_bits_corpus.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

from sensor_shapley.cli import main

TESTS = Path(__file__).resolve().parent.parent / "tests"
MANIFEST = TESTS / "same_bits_manifest.txt"
GOLDEN_DIR = TESTS / "golden"


def random_payload(seed: int, p: int, n: int, horizon: int) -> dict:
    # A stable A (scaled to infinity norm 0.95, so no eigen-solve is needed to
    # build it), rows scaled over 1e-3..1e3 with about a fifth of the entries
    # exactly zero; from p = 4 on, sensor 1 is all zeros (a dummy) and the
    # last sensor repeats sensor 0's row (a symmetric pair).
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= 0.95 / np.abs(a).sum(axis=1).max()
    rows = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-3, 3, size=(p, 1))
    rows[rng.random((p, n)) < 0.2] = 0.0
    if p >= 4:
        rows[1] = 0.0
        rows[-1] = rows[0]
    return payload(a.tolist(), rows.tolist(), horizon)


def orthogonal_payload(p: int, n: int, horizon: int) -> dict:
    # An orthogonal A (neither growing nor decaying over a long window) and
    # rows with about a fifth of their entries exactly zero, seeded by size.
    rng = np.random.default_rng((p, n, horizon))
    a = np.linalg.qr(rng.standard_normal((n, n)))[0]
    rows = rng.standard_normal((p, n))
    rows[rng.random((p, n)) < 0.2] = 0.0
    return payload(a.tolist(), rows.tolist(), horizon)


def payload(state_matrix, rows, horizon) -> dict:
    sensors = [{"name": f"s{i}", "row": row} for i, row in enumerate(rows)]
    return {
        "state_matrix": state_matrix,
        "sensors": sensors,
        "horizon_samples": horizon,
    }


def mutated(change) -> dict:
    # A valid two-sensor document with one change applied in place.
    doc = payload([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, -1.0]], 10)
    doc["name"] = "demo"
    change(doc)
    return doc


def sensor(doc, key, value):
    doc["sensors"][0][key] = value


# Model documents written as raw text, for what json.dumps cannot produce.
RAW_DOCUMENTS = {
    "schema-document-is-a-list": "[1.0, 2.0]",
    "syntax-truncated": '{"state_matrix": [[1]]',
    "syntax-nan-constant": (
        '{"state_matrix": [[NaN]], "sensors": [], "horizon_samples": 1}'
    ),
    "schema-too-large-entry": (
        '{"state_matrix": [[1' + "0" * 400 + ']], "sensors": '
        '[{"name": "a", "row": [1]}], "horizon_samples": 1}'
    ),
    "schema-too-large-horizon": (
        '{"state_matrix": [[1]], "sensors": [{"name": "a", "row": [1]}], '
        '"horizon_samples": 1' + "0" * 400 + "}"
    ),
    "validation-non-finite-state": (
        '{"state_matrix": [[1e400]], "sensors": [{"name": "a", "row": [1]}], '
        '"horizon_samples": 1}'
    ),
    "validation-non-finite-row": (
        '{"state_matrix": [[1]], "sensors": [{"name": "a", "row": [-1e400]}], '
        '"horizon_samples": 1}'
    ),
    "schema-duplicate-field": (
        '{"state_matrix": [[1]], "sensors": [{"name": "a", "row": [1]}], '
        '"horizon_samples": 1, "horizon_samples": 3}'
    ),
    "schema-sensor-duplicate-field": (
        '{"state_matrix": [[1]], "sensors": [{"name": "a", "row": [1], "row": [2]}], '
        '"horizon_samples": 1}'
    ),
}

# Each rejected document's change to the valid two-sensor document.
REJECTED_DOCUMENTS = {
    "schema-unknown-field": lambda d: d.update(extra=1),
    "schema-missing-field": lambda d: d.pop("sensors"),
    "schema-name-not-a-string": lambda d: d.update(name=7),
    "schema-state-matrix-empty": lambda d: d.update(state_matrix=[]),
    "schema-state-row-empty": lambda d: d.update(state_matrix=[[]]),
    "schema-entry-not-a-number": lambda d: d.update(state_matrix=[["x", 0], [0, 1]]),
    "schema-entry-is-a-bool": lambda d: d.update(state_matrix=[[True, 0], [0, 1]]),
    "schema-ragged-matrix": lambda d: d.update(state_matrix=[[1.0, 0.0], [1.0]]),
    "schema-sensors-not-an-array": lambda d: d.update(sensors={}),
    "schema-sensor-not-an-object": lambda d: d.update(sensors=[[1.0, 0.0]]),
    "schema-sensor-unknown-field": lambda d: sensor(d, "gain", 2.0),
    "schema-sensor-missing-field": lambda d: d["sensors"][0].pop("row"),
    "schema-sensor-name-empty": lambda d: sensor(d, "name", ""),
    "schema-sensor-row-empty": lambda d: sensor(d, "row", []),
    "schema-horizon-zero": lambda d: d.update(horizon_samples=0),
    "schema-horizon-fraction": lambda d: d.update(horizon_samples=2.5),
    "schema-horizon-bool": lambda d: d.update(horizon_samples=True),
    "validation-not-square": lambda d: d.update(state_matrix=[[1.0, 0.0]]),
    "validation-no-sensors": lambda d: d.update(sensors=[]),
    "validation-duplicate-name": lambda d: sensor(d, "name", "s1"),
    "validation-row-length": lambda d: sensor(d, "row", [1.0, 0.0, 3.0]),
    "validation-several": lambda d: (
        d.update(state_matrix=[[1.0, 2.0]]),
        sensor(d, "name", "s1"),
        sensor(d, "row", [1.0]),
    ),
    "schema-name-control-character": lambda d: d.update(name="demo\x1b[2J"),
    "validation-sensor-name-control-character": lambda d: sensor(d, "name", "s\n0"),
}

# Models whose dynamics or sizes sit at the edges of what is accepted.
EDGE_MODELS = {
    # A^800 overflows: refused when the bank is built, naming the sensor
    "unstable-overflow": payload([[3.0]], [[1.0]], 800),
    # A^800 overflows for both sensors, but only s1 sees the unstable mode:
    # s0's Gramian is rebuilt from its own row, and the error names s1
    "unstable-blind-sensor": payload(
        [[3.0, 0.0], [0.0, 0.5]], [[0.0, 1.0], [1.0, 0.0]], 800
    ),
    "unstable-accepted": payload(
        [[1.3, 0.2], [0.0, 0.7]], [[1.0, 0.0], [0.5, 1.0]], 12
    ),
    "rotation-marginal": payload(
        [[0.6, -0.8], [0.8, 0.6]], [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], 30
    ),
    "jordan-defective": payload([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 8),
    # one bank entry of 1e308 is accepted; three of 6.4e307 sum past it
    "float-range-bank": payload([[1.0]], [[1e154]], 1),
    "float-range-sum": payload([[1.0]], [[8e153]] * 3, 1),
    # 100 marginals of 9e306 sum past the float range in the sampler
    "float-range-sampled": payload([[1.0]], [[3e153]], 1),
}

# Long windows: an orthogonal A on 24 states, as in perfbench's long-horizon
# workload, and a rotation plane beside a unit mode on 3 states, whose rows'
# zeros in the plane make a -0.0 product at every sample.
LONG_WINDOWS = {
    "long-window-p8-n24-h1000": orthogonal_payload(8, 24, 1000),
    "long-window-p3-n3-h6000": payload(
        [[0.8, -0.6, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 0.0, -1.5], [1.0, -0.5, 0.0], [0.0, 0.25, -2.0]],
        6000,
    ),
}

ANALYZE_FORMS = {
    "json": ["analyze", "--format", "json"],
    "trace-json": ["analyze", "--format", "json", "--metric", "trace"],
    "table": ["analyze"],
    "sampled-json": ["analyze", "--format", "json", "--sample", "100", "--seed", "3"],
    "sampled-trace-table": ["analyze", "--metric", "trace", "--sample", "7"],
    "check": ["check"],
}

FLAG_ERRORS = {
    "flag-horizon-zero": ["analyze", "--scenario", "1", "--horizon", "0"],
    "flag-tolerance-nan": ["check", "--scenario", "1", "--tolerance", "nan"],
    "flag-sample-zero": ["analyze", "--scenario", "1", "--sample", "0"],
    "flag-seed-negative": [
        "analyze", "--scenario", "1", "--sample", "5", "--seed", "-1"
    ],
    "flag-unknown-metric": ["analyze", "--scenario", "1", "--metric", "logdet"],
    "flag-no-model": ["analyze"],
}

# Models whose reports reach shapes the scenarios do not: in twin, a and b
# are interchangeable, z observes nothing, and no sensor sees the second
# state, so the min-eig grand value is 0 (no share_of_total); in wide, s0 and
# s3 are interchangeable, s4 observes nothing, and 13 sensors are more than
# verify_axioms checks exhaustively.
REPORT_MODELS = {
    "twin": {
        "name": "twin",
        "state_matrix": [[0.9, 0.0], [0.0, 0.7]],
        "sensors": [
            {"name": "a", "row": [1.0, 0.0]},
            {"name": "b", "row": [1.0, 0.0]},
            {"name": "z", "row": [0.0, 0.0]},
        ],
        "horizon_samples": 4,
    },
    "wide": {
        "name": "wide",
        **payload(
            [[0.5, 0.25], [0.0, 0.5]],
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
            + [[float(k), 1.0] for k in range(2, 10)],
            3,
        ),
    },
}

# The report pins: a model of REPORT_MODELS and the flags it runs with.
REPORT_PINS = {
    "twin_trace": ["twin", "--metric", "trace"],
    "twin": ["twin"],
    "wide_trace": ["wide", "--metric", "trace"],
    "twin_trace_sampled": [
        "twin", "--metric", "trace", "--sample", "16", "--seed", "3",
    ],
}

# Each file in tests/golden/ and the command line whose stdout it holds, run
# as the id golden-<file>: the scenarios' reports, then each report pin as
# JSON and as a table, on its model file in {directory}, where the corpus
# writes its models. tests/test_cli.py's golden test ids carry each entry's
# position (argvN), so a new entry goes last.
GOLDENS = {
    "analyze_scenario2_trace.json": [
        "analyze", "--scenario", "2", "--format", "json", "--metric", "trace",
    ],
    "analyze_scenario2_sampled.json": [
        "analyze", "--scenario", "2", "--format", "json",
        "--sample", "2000", "--seed", "0",
    ],
    "analyze_scenario1_table.txt": ["analyze", "--scenario", "1", "--format", "table"],
    "analyze_scenario2_table.txt": ["analyze", "--scenario", "2", "--format", "table"],
    "analyze_scenario2_sampled_table.txt": [
        "analyze", "--scenario", "2", "--format", "table",
        "--sample", "2000", "--seed", "0",
    ],
    "check_scenario1.txt": ["check", "--scenario", "1"],
    "check_scenario2.txt": ["check", "--scenario", "2"],
    "analyze_scenario1.json": ["analyze", "--scenario", "1", "--format", "json"],
    "analyze_scenario2.json": ["analyze", "--scenario", "2", "--format", "json"],
    **{
        f"analyze_{case}{suffix}": [
            "analyze", "--model", f"{{directory}}/{model}.json", *flags, *form,
        ]
        for case, (model, *flags) in REPORT_PINS.items()
        for suffix, form in ((".json", ["--format", "json"]), ("_table.txt", []))
    },
}


def invocations(directory: Path) -> list[tuple[str, list[str]]]:
    """The corpus as (id, argv) pairs, its model files written into
    ``directory`` (whose path appears in no output)."""
    runs = []

    def model_file(name: str, text: str) -> list[str]:
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return ["--model", str(path)]

    for p in range(1, 14):
        n, horizon = 2 + p % 4, 4 + p % 5
        source = model_file(f"p{p}", json.dumps(random_payload(p, p, n, horizon)))
        run_id = f"p{p:02d}"
        runs += [
            (f"{run_id}-exact-min-eig-json", ANALYZE_FORMS["json"] + source),
            (f"{run_id}-exact-trace-json", ANALYZE_FORMS["trace-json"] + source),
            (f"{run_id}-exact-min-eig-table", ANALYZE_FORMS["table"] + source),
            (f"{run_id}-sampled-min-eig-json", ANALYZE_FORMS["sampled-json"] + source),
            (
                f"{run_id}-sampled-trace-table-seed{p}",
                ANALYZE_FORMS["sampled-trace-table"] + ["--seed", str(p)] + source,
            ),
            (f"{run_id}-check", ["check"] + source),
            (f"{run_id}-check-tolerance", ["check", "--tolerance", "1e-3"] + source),
            (
                f"{run_id}-horizon-trace-json",
                ANALYZE_FORMS["trace-json"] + ["--horizon", str(horizon + 7)] + source,
            ),
        ]

    # 2^15 coalitions without each sensor: the exact contraction adds its
    # dot products in pieces, whatever the BLAS thread count
    source = model_file("p16", json.dumps(random_payload(16, 16, 2, 5)))
    runs.append(("p16-exact-trace-json", ANALYZE_FORMS["trace-json"] + source))

    for p in (25, 40, 70):
        source = model_file(f"p{p}", json.dumps(random_payload(p, p, 6, 10)))
        sampled = ["analyze", "--format", "json", "--sample", "30"]
        runs += [
            (f"p{p}-sampled-min-eig-json", sampled + source),
            (f"p{p}-sampled-trace-json", sampled + ["--metric", "trace"] + source),
            (
                f"p{p}-sampled-min-eig-table-seed9",
                ["analyze", "--sample", "10", "--seed", "9"] + source,
            ),
            (f"p{p}-exact-over-the-cap", ["analyze"] + source),
            (f"p{p}-check", ["check"] + source),
        ]

    # 2^13 coalitions of 24-state Gramians: the exact table sums each chunk
    # from a partial table over the low 10 sensors plus the high members
    source = model_file("wide-state", json.dumps(random_payload(24, 13, 24, 6)))
    for form in ("trace-json", "json", "check"):
        runs.append((f"wide-state-p13-{form}", ANALYZE_FORMS[form] + source))

    # windows of many blocks of samples, the last one partial, for the bank
    for name, doc in LONG_WINDOWS.items():
        source = model_file(name, json.dumps(doc))
        for form in ("trace-json", "json"):
            runs.append((f"{name}-{form}", ANALYZE_FORMS[form] + source))

    for sid in ("1", "2"):
        scenario = ["--scenario", sid]
        runs += [
            (
                f"scenario{sid}-horizon-4-trace-json",
                ANALYZE_FORMS["trace-json"] + scenario + ["--horizon", "4"],
            ),
            (
                f"scenario{sid}-horizon-200-json",
                ANALYZE_FORMS["json"] + scenario + ["--horizon", "200"],
            ),
            (
                f"scenario{sid}-check-tolerance-1e3",
                ["check", "--tolerance", "1e3"] + scenario,
            ),
            (
                f"scenario{sid}-sampled-seed7-table",
                ["analyze", "--sample", "50", "--seed", "7"] + scenario,
            ),
        ]

    for name, edge in EDGE_MODELS.items():
        source = model_file(name, json.dumps(edge))
        for form in ("trace-json", "table", "sampled-json", "check"):
            runs.append((f"{name}-{form}", ANALYZE_FORMS[form] + source))

    for name, change in REJECTED_DOCUMENTS.items():
        source = model_file(name, json.dumps(mutated(change)))
        runs.append((name, ["check"] + source))
    for name, text in RAW_DOCUMENTS.items():
        runs.append((name, ["analyze"] + model_file(name, text)))
    runs += list(FLAG_ERRORS.items())

    for name, doc in REPORT_MODELS.items():
        model_file(name, json.dumps(doc))
    for name, argv in GOLDENS.items():
        argv = [arg.format(directory=directory) for arg in argv]
        runs.append((f"golden-{name}", argv))
    return runs


def run(argv: list[str]) -> tuple[str, str, str]:
    """One in-process CLI run: (exit code, stdout, stderr plus warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = str(main(argv))
            except Exception as exc:  # an escaping exception is an outcome too
                code = type(exc).__name__
                err.write(f"{exc}\n")
    for warning in caught:
        err.write(f"{warning.category.__name__}: {warning.message}\n")
    return code, out.getvalue(), err.getvalue()


def outcomes(directory: Path) -> list[tuple[str, str, str, str]]:
    """(id, exit code, stdout, stderr plus warnings) of every invocation."""
    return [(run_id, *run(argv)) for run_id, argv in invocations(directory)]


def manifest_line(run_id: str, code: str, out: str, err: str) -> str:
    """An invocation's line: id, exit code, sha256(stdout), sha256(stderr)."""
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    return " ".join([run_id, code, *digests])


def manifest_lines(directory: Path) -> list[str]:
    """One line per invocation."""
    return [manifest_line(*outcome) for outcome in outcomes(directory)]


def blas_core() -> str:
    """The CPU kernel numpy's bundled OpenBLAS runs on, such as ``SkylakeX``
    or ``Haswell`` (``OPENBLAS_CORETYPE`` overrides it), or ``unknown``
    where numpy does not bundle scipy-openblas."""
    root = Path(np.__file__).parent
    bundled = [
        *root.parent.glob("numpy.libs/libscipy_openblas*"),
        *root.glob(".dylibs/libscipy_openblas*"),
    ]
    for path in sorted(bundled):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def header() -> list[str]:
    """The manifest's header: its line format, the numpy and BLAS versions
    and the BLAS core the hashes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        "# same-bits manifest: id exit sha256(stdout) sha256(stderr)",
        f"# numpy {np.__version__}",
        f"# blas {blas['name']} {blas['version']}",
        f"# blas core {blas_core()}",
    ]


def recorded_core() -> str:
    """The BLAS core ``MANIFEST``'s header records."""
    text = MANIFEST.read_text(encoding="utf-8")
    return re.search(r"^# blas core (.*)$", text, re.MULTILINE).group(1)


def manifest_path() -> Path:
    """This run's manifest: ``MANIFEST`` when OpenBLAS runs on the core it
    records, else the manifest named after the running core, such as
    ``tests/same_bits_manifest.Haswell.txt``."""
    core = blas_core()
    if core == recorded_core():
        return MANIFEST
    return MANIFEST.with_name(f"same_bits_manifest.{core}.txt")


def read_manifest(path: Path) -> tuple[list[str], dict[str, str]]:
    """A manifest's header lines and its invocation lines by id. A core with
    no manifest fails in one line naming it and the core of ``MANIFEST``."""
    if not path.exists():
        raise FileNotFoundError(
            f"no same-bits manifest for BLAS core {blas_core()} ({path.name}); "
            f"{MANIFEST.name} records BLAS core {recorded_core()}"
        )
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    runs = {line.split()[0]: line for line in lines if line not in header}
    return header, runs


def write_manifest() -> None:
    path = manifest_path()
    with tempfile.TemporaryDirectory() as directory:
        runs = outcomes(Path(directory))
    lines = [manifest_line(*outcome) for outcome in runs]
    path.write_text("\n".join(header() + lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(lines)} invocations)")
    if path == MANIFEST:  # the goldens hold the bytes of MANIFEST's core
        for run_id, _, out, _ in runs:
            if run_id.startswith("golden-"):
                golden = GOLDEN_DIR / run_id.removeprefix("golden-")
                golden.write_text(out, encoding="utf-8")
        print(f"wrote {len(GOLDENS)} files in {GOLDEN_DIR}")


if __name__ == "__main__":
    write_manifest()
