"""A fixed computation, independent of ``chernlab``, timed next to the
operations and the set-up so that their times can be rescaled to a fixed
machine speed.

On a small shared virtual machine the speed of the host drifts over minutes
(a neighbour's load on the same core or cache): the median wall time of one
operation moved by up to 25% between identical runs, and the set-up time by
40% between two sets of ten runs, while their ratios to this computation
moved by about a third of that.  A time ``t`` measured next to a reference
timing ``r`` is reported as ``t * NOMINAL_S / r``: seconds on a machine where
the reference takes ``NOMINAL_S``, its median on the 2-vCPU Xeon virtual
machine where the benchmark was defined.  The mix
follows the program's layers: chains of batched 4x4 complex products with a
trace (the trace-power kernel), an FFT along one axis of a stacked field
(``differentiate``), a Python loop of 2x2 products (the transport step) and
the singular values of a 240x240 complex matrix (``numerical_rank``).
"""

from __future__ import annotations

import time

import numpy as np


NOMINAL_S = 0.05


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._stack = rng.standard_normal((4096, 4, 4)) + 1j * rng.standard_normal((4096, 4, 4))
        self._field = rng.standard_normal((8, 16, 16, 16, 2, 2)) + 0j
        self._step = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        self._square = rng.standard_normal((240, 240)) + 1j * rng.standard_normal((240, 240))

    def run(self) -> None:
        a = self._stack
        for _ in range(6):
            np.trace(a @ a @ a, axis1=-2, axis2=-1)
        np.fft.ifft(np.fft.fft(self._field, axis=1), axis=1)
        w = self._step
        for _ in range(3000):  # unitary steps: no overflow, no denormals
            w = self._step @ w
            w.trace()
        for _ in range(2):
            np.linalg.svd(self._square, compute_uv=False)

    def time_once(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start

    def warm_median(self, n: int = 3) -> float:
        """Median of ``n`` timings after three untimed calls, which pay for
        lazy initialisation."""
        for _ in range(3):
            self.run()
        return sorted(self.time_once() for _ in range(n))[n // 2]
