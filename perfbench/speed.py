"""CPU-speed probe used to put timings from a noisy shared host on one scale.

On a shared host the speed of a vCPU drifts by up to about 2x over tens of
seconds as neighbours load the machine, and that drift moves every timing
alike. The probe times a fixed kernel shaped like the program's work
(interpreter-bound Python, small matmuls, small symmetric eigen-solves)
right before and right after each op, and the op's wall time is multiplied
by ``REFERENCE_S`` over the mean of the two kernel times: the time the op
would take on a CPU that runs the kernel in ``REFERENCE_S``. The kernel is the benchmark's own code, so changes to the
program never move it. Raw wall times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds that define the reference CPU speed: roughly the kernel's
# time on an uncontended 2-vCPU Xeon VM, so scaled and raw timings there are
# of the same size.
REFERENCE_S = 0.010
_ITERATIONS = 500


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20_251_017)
        small = rng.standard_normal((8, 6, 6))
        self._spd = [m @ m.T for m in small]
        # An orthogonal 24x24 step and one sensor row, as in a Gramian bank.
        self._step = np.linalg.qr(rng.standard_normal((24, 24)))[0]
        self._row = rng.standard_normal((1, 24))

    def kernel_seconds(self) -> float:
        """Wall time of one run of the fixed kernel."""
        start = time.perf_counter()
        acc = 0.0
        power = np.eye(24)
        gram = np.zeros((24, 24))
        for j in range(_ITERATIONS):
            w = self._spd[j % 8] + self._spd[(3 * j + 1) % 8]
            acc += float(np.linalg.eigvalsh((w + w.T) / 2.0)[0])
            block = self._row @ power
            gram += block.T @ block
            power = power @ self._step
            record = {"index": j, "values": [acc, j * 0.5], "name": f"k{j}"}
            acc += len(record["values"]) + sum(range(j % 17))
        if not np.isfinite(acc + gram.trace()):
            raise ArithmeticError("speed probe kernel diverged")
        return time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        """Scale for a timing bracketed by kernel runs of ``before`` and
        ``after`` seconds."""
        return REFERENCE_S / ((before + after) / 2.0)
