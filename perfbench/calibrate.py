"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a vCPU changes from second to second: on a
2-vCPU VM it switches between a fast and a slow state (about 1.4 to 1.7x
apart) every few seconds, each vCPU on its own, and the share of slow time
drifts between runs.  Raw seconds then moved by up to 27 % between two
sets of runs of the same code.  A probe on the other vCPU cannot see
this.  So the benchmark samples this kernel on the same
thread as the workload, while the workload runs: a timer signal interrupts
it every INTERVAL_S and runs one short kernel slice.  The slices are
subtracted from the workload's time, and their mean gives the host speed
over exactly that stretch of time.

The kernel does not use calabiflow, so no change to the package can move
it.  Its work mirrors the mix of a flow step: interpreted Python, numpy
operations on small and on large arrays, and a pentadiagonal banded solve
with two right-hand sides, as the Newton iteration makes.  Its inputs are
fixed, so every slice does exactly the same work.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# nominal seconds of one kernel slice: normalised times are seconds on a
# host that runs a slice in this time (a slice took 12 to 26 ms on an
# Intel Xeon 2-vCPU VM with python 3.11, numpy 2.4, scipy 1.17 and one
# BLAS thread, fast to slow state)
REFERENCE_S = 0.015
# wall seconds between two slices while a workload runs
INTERVAL_S = 0.25
# slices timed in a row where the kernel cannot run alongside
SERIAL_SLICES = 12
_SIZES = (513, 2731)


def _inputs(n: int):
    x = np.linspace(-1.0, 1.0, n)
    ab = np.empty((5, n))
    ab[0] = ab[4] = 0.05
    ab[1] = ab[3] = -1.0
    ab[2] = 4.0 + x * x
    rhs = np.stack([np.cos(3.0 * x), np.sin(2.0 * x)], axis=1)
    return x, ab, rhs


_DATA = [_inputs(n) for n in _SIZES]


def _python_part(count: int) -> float:
    acc = 0.0
    values = {}
    for i in range(count):
        v = (i % 97) * 0.5 + 1.0
        values[i & 255] = v
        acc += v * v / (v + 1.0)
    return acc + len(values)


def _array_part(x: np.ndarray, ab: np.ndarray, rhs: np.ndarray, solves: int) -> float:
    acc = 0.0
    for _ in range(solves):
        w = np.exp(-x * x) + 0.1
        d1 = np.gradient(w, x)
        d2 = np.diff(w, 2)
        acc += float(np.max(np.abs(d1))) + float(np.sum(d2 * d2))
        sol = solve_banded((2, 2), ab, rhs)
        acc += float(sol[0, 0])
    return acc


def kernel_slice() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    started = time.perf_counter()
    _python_part(15000)
    _array_part(*_DATA[0], solves=40)
    _array_part(*_DATA[1], solves=12)
    return time.perf_counter() - started


def serial_slices() -> list[float]:
    """SERIAL_SLICES slice times in a row, after one untimed warm-up slice."""
    kernel_slice()
    return [kernel_slice() for _ in range(SERIAL_SLICES)]


class Sampler:
    """Runs a kernel slice every INTERVAL_S of wall time between start()
    and stop(), on the main thread, from a timer signal."""

    def __init__(self):
        self.slices: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.slices.append(kernel_slice())

    def start(self) -> None:
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def normalise(seconds: float, slices: list[float]) -> float:
    """Seconds on the reference host: measured seconds scaled by the
    reference slice time over the mean slice time measured alongside."""
    return seconds * REFERENCE_S / statistics.fmean(slices)
