"""Every invocation of the same-bits corpus keeps the exit code, stdout and
stderr recorded in the manifest of its BLAS core (see
scripts/same_bits_corpus.py), on the core of this run and on OpenBLAS's
Haswell kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import load_script

TESTS = Path(__file__).resolve().parent

# Prints corpus_run of a directory as JSON.
CHILD = """
import json, sys
from pathlib import Path
from test_same_bits import corpus_run
print(json.dumps(corpus_run(Path(sys.argv[1]))))
"""


def corpus_run(directory: Path) -> tuple:
    """This run's manifest (name, header, lines by id), header and lines."""
    corpus = load_script("same_bits_corpus")
    manifest = corpus.manifest_path()
    taken, expected = corpus.read_manifest(manifest)
    lines = corpus.manifest_lines(directory)
    return manifest.name, taken, expected, corpus.header(), lines


def assert_keeps_its_bits(name, taken, expected, header, lines):
    # versions and the BLAS core: a mismatch names both sides in one line,
    # not the ids whose bits it moves
    then, here = ("; ".join(line[2:] for line in side[1:]) for side in (taken, header))
    assert taken == header, (
        f"{name} was taken with {then} but this run has {here}; "
        f"rewrite it with scripts/same_bits_corpus.py on the parent commit "
        f"before comparing"
    )
    actual = {line.split()[0]: line for line in lines}
    changed = [run_id for run_id in actual if actual[run_id] != expected.get(run_id)]
    missing = [run_id for run_id in expected if run_id not in actual]
    assert not changed and not missing, (
        f"changed: {', '.join(changed) or 'none'}; "
        f"no longer run: {', '.join(missing) or 'none'}"
    )


def test_every_invocation_keeps_its_bits(tmp_path):
    assert_keeps_its_bits(*corpus_run(tmp_path))


def test_every_invocation_keeps_its_bits_on_the_haswell_kernel(tmp_path):
    # OpenBLAS picks its kernel when it loads, so a pinned run needs a fresh
    # interpreter
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(path)
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    assert_keeps_its_bits(*json.loads(child.stdout))
