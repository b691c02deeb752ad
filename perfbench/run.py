"""Benchmark of ``sensor-shapley analyze``; run it from the repository root:

    python3 perfbench/run.py --workload exact-table --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the tree it sits in, drives
``sensor_shapley.cli.main`` in-process from one client in a closed loop,
checks every output against an independent reference, and prints every
metric with its unit. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before numpy is imported,
# here and in the set-up child processes, which inherit the environment.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("exact-table", "long-horizon", "sampled-wide")
DEFAULT_SECONDS = 30


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                        help="'all' runs every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args: argparse.Namespace) -> int:
    """Each workload untraced then traced, one fresh process per run."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            sys.stdout.write(proc.stdout + "\n")
            lines = proc.stdout.strip().splitlines()
            ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print(f"all workloads: {'correct' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "sensor_shapley" / "__init__.py").is_file():
        print(f"perfbench: no sensor_shapley package under {src}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))

    import bench  # imports numpy, so only after the pinning above

    return bench.run(args, root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
