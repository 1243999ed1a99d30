"""The machine's speed, sampled while a pass runs, to express times at one speed.

A shared virtual machine's speed moves by tens of percent from one second to
the next, in CPU time as much as in wall time.  While a pass runs, a
background thread times a fixed slice of work every SLICE_PERIOD_S: a Python
loop of small numpy operations, like the Langevin integrator's numpy kernel.
The slice holds the interpreter lock for about a millisecond, so it runs at
the speed the pass sees.  A pass time is then reported as ``seconds *
NOMINAL_SLICE_S / mean slice CPU time``.  The slice calls nothing in
modeheat, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

SLICE_PERIOD_S = 0.05
# Median slice CPU time on the calibration machine: a 2-vCPU Intel Xeon
# virtual machine, Python 3.11, numpy 2.4.6 on OpenBLAS with one thread.
NOMINAL_SLICE_S = 0.9e-3

_E = np.array([[0.9, 0.1], [-0.1, 0.9]])
_L = 0.1 * np.eye(2)
_Z = np.random.default_rng(20090937).standard_normal((200, 2))


class Sampler:
    """Slice CPU times taken from the start of a ``with`` block to its end:
    one as it starts, one every SLICE_PERIOD_S, and one as it ends."""

    def __init__(self):
        self.cpus: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _slice(self) -> None:
        x = np.zeros(2)
        c0 = time.thread_time()
        for z in _Z:
            x[:] = _E @ x + _L @ z
        self.cpus.append(time.thread_time() - c0)

    def _run(self) -> None:
        self._slice()
        while not self._stop.wait(SLICE_PERIOD_S):
            self._slice()

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._slice()

    def slice_s(self) -> float:
        return statistics.fmean(self.cpus)

    def scale(self, seconds: float) -> float:
        """``seconds`` expressed at the calibration machine's speed."""
        return seconds * NOMINAL_SLICE_S / self.slice_s()
