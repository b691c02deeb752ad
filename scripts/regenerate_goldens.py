#!/usr/bin/env python3
"""Regenerate the committed golden CLI reports in tests/golden/.

The goldens pin the exact bytes of `sensor-shapley analyze --scenario N
--format json` with the default metric, plus scenario 2 with the trace
metric and with permutation sampling (2000 orderings, seed 0). Rerun after
any intentional change to report content or rendering, and eyeball the diff
before committing.
"""

import contextlib
import io
import sys
from pathlib import Path

from sensor_shapley.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def capture(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command {argv} exited with {code}")
    return out.getvalue()


GOLDENS = {
    "analyze_scenario1.json": ["--scenario", "1"],
    "analyze_scenario2.json": ["--scenario", "2"],
    "analyze_scenario2_trace.json": ["--scenario", "2", "--metric", "trace"],
    "analyze_scenario2_sampled.json": [
        "--scenario", "2", "--sample", "2000", "--seed", "0",
    ],
}


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDENS.items():
        text = capture(["analyze", *argv, "--format", "json"])
        path = GOLDEN_DIR / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    sys.exit(regenerate())
