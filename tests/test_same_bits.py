"""Every invocation of the same-bits corpus keeps the exit code, stdout and
stderr recorded in the manifest (see scripts/same_bits_corpus.py)."""

from conftest import load_same_bits_corpus


def test_every_invocation_keeps_its_bits(tmp_path):
    corpus = load_same_bits_corpus()
    recorded = corpus.MANIFEST.read_text(encoding="utf-8").splitlines()
    header = [line for line in recorded if line.startswith("#")]
    # versions and the BLAS core: a mismatch names both sides in one line,
    # not the ids whose bits it moves
    taken, here = (
        "; ".join(line[2:] for line in lines[1:])
        for lines in (header, corpus.header())
    )
    assert header == corpus.header(), (
        f"the manifest was taken with {taken} but this run has {here}; "
        f"rewrite it with scripts/same_bits_corpus.py on the parent commit "
        f"before comparing"
    )
    expected = {line.split()[0]: line for line in recorded if line not in header}
    actual = {line.split()[0]: line for line in corpus.manifest_lines(tmp_path)}
    changed = [run_id for run_id in actual if actual[run_id] != expected.get(run_id)]
    missing = [run_id for run_id in expected if run_id not in actual]
    assert not changed and not missing, (
        f"changed: {', '.join(changed) or 'none'}; "
        f"no longer run: {', '.join(missing) or 'none'}"
    )
