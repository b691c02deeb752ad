#!/usr/bin/env python3
"""Run both bundled scenarios through every metric and print the results.

Shows the standalone-vs-Shapley tables for the trace and minimum-eigenvalue
metrics plus the per-sensor observability verdicts, i.e. everything the two
example systems are designed to illustrate: the trace never credits sensor
interactions, while the minimum eigenvalue pays complementary sensors for
the blind directions they repair in each other.
"""

import sys

from sensor_shapley import ValueFunctionKind
from sensor_shapley.cli import main
from sensor_shapley.scenarios import SCENARIO_IDS


def run() -> int:
    for sid in map(str, SCENARIO_IDS):
        print(f"=== scenario {sid}: observability verdicts ===")
        main(["check", "--scenario", sid])
        print()
        for metric in (kind.value for kind in ValueFunctionKind):
            print(f"=== scenario {sid}: {metric} attribution ===")
            code = main(["analyze", "--scenario", sid, "--metric", metric])
            if code != 0:
                return code
            print()
    return 0


if __name__ == "__main__":
    sys.exit(run())
