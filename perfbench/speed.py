"""Machine-speed probe interleaved with the timed work.

On a shared machine the same pass can take a fifth longer from one minute
to the next, and the slowdown hits the program and any other CPU work
alike.  The probe runs a fixed kernel (pure-Python arithmetic plus small
dense solves, the mix the program's hot loops have) between tasks, at
most every :data:`INTERVAL_S` of work, and the run scales its timings by
``REFERENCE_S / mean kernel time``.  Timings are therefore reported in
seconds at the reference speed: the speed at which the kernel takes
:data:`REFERENCE_S`.  The kernel never calls the program, so a change to
the program cannot move the factor.  Raw wall-clock is printed alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time [s] that defines the reference speed: near the fast end of
#: the times measured on a 2-core x86 VM (Python 3.11, numpy 2.4, one BLAS
#: thread), where 300 calls took 3.6-10 ms, median 5.5 ms.
REFERENCE_S = 0.0040
#: Least work time [s] between two kernel samples (about 5 % overhead).
INTERVAL_S = 0.1

_MATRIX = np.random.default_rng(0).random((30, 30)) + 30.0 * np.eye(30)
_RHS = np.ones(30)


def kernel() -> float:
    """Run the fixed calibration work once; return its duration."""
    started = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(200):
        np.linalg.solve(_MATRIX, _RHS)
    return time.perf_counter() - started


class SpeedProbe:
    """Samples :func:`kernel` when called, at most every :data:`INTERVAL_S`."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def __call__(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        """Run the kernel now."""
        self.samples.append(kernel())
        self._due = time.perf_counter() + INTERVAL_S

    def factor(self) -> float:
        """Reference speed over the run's mean speed (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)
