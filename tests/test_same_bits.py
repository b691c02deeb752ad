"""Every invocation of the same-bits corpus keeps the exit code, stdout and
stderr recorded in the manifest (see scripts/same_bits_corpus.py), on the
BLAS core of this run and on OpenBLAS's Haswell kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import load_script

TESTS = Path(__file__).resolve().parent

# Prints [manifest path, header, invocation lines] of a corpus run as JSON.
CHILD = """
import json, sys
from pathlib import Path
from conftest import load_script
corpus = load_script("same_bits_corpus")
lines = corpus.manifest_lines(Path(sys.argv[1]))
print(json.dumps([str(corpus.manifest_path()), corpus.header(), lines]))
"""


def assert_keeps_its_bits(manifest: Path, header: list[str], lines: list[str]):
    recorded = manifest.read_text(encoding="utf-8").splitlines()
    taken = [line for line in recorded if line.startswith("#")]
    # versions and the BLAS core: a mismatch names both sides in one line,
    # not the ids whose bits it moves
    then, here = ("; ".join(line[2:] for line in side[1:]) for side in (taken, header))
    assert taken == header, (
        f"{manifest.name} was taken with {then} but this run has {here}; "
        f"rewrite it with scripts/same_bits_corpus.py on the parent commit "
        f"before comparing"
    )
    expected = {line.split()[0]: line for line in recorded if line not in taken}
    actual = {line.split()[0]: line for line in lines}
    changed = [run_id for run_id in actual if actual[run_id] != expected.get(run_id)]
    missing = [run_id for run_id in expected if run_id not in actual]
    assert not changed and not missing, (
        f"changed: {', '.join(changed) or 'none'}; "
        f"no longer run: {', '.join(missing) or 'none'}"
    )


def test_every_invocation_keeps_its_bits(tmp_path):
    corpus = load_script("same_bits_corpus")
    lines = corpus.manifest_lines(tmp_path)
    assert_keeps_its_bits(corpus.manifest_path(), corpus.header(), lines)


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
    manifest, header, lines = json.loads(child.stdout)
    assert_keeps_its_bits(Path(manifest), header, lines)
