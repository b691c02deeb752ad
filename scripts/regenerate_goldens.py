#!/usr/bin/env python3
"""Regenerate the committed golden CLI reports in tests/golden/.

The goldens pin the exact bytes of `sensor-shapley analyze --scenario N
--format json` with the default metric, plus scenario 2 with the trace
metric and with permutation sampling (2000 orderings, seed 0); the table
rendering of scenarios 1 and 2, exact and sampled; and `sensor-shapley check
--scenario N`. Rerun after any intentional change to report content or
rendering, and eyeball the diff before committing.
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


# tests/test_cli.py's golden test ids carry each entry's position (argvN),
# so a new entry goes last.
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
}


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDENS.items():
        text = capture(argv)
        path = GOLDEN_DIR / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    sys.exit(regenerate())
