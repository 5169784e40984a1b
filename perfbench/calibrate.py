"""A fixed NumPy/SciPy loop that measures how fast the machine is right now.

The benchmark runs on small shared machines whose speed drifts by 20-40%
over seconds to minutes.  ``Calibration`` times a loop that does the same
kinds of work as favard's ops (short vectorized NumPy expressions driven
from Python, complex inner products and updates as in a Krylov loop, an
FFT, dense and tridiagonal eigensolves, a strided read of 16 MB, more than
a core's private caches hold) but never calls favard.  Run before every
op, it lets each op's latency be rescaled to a machine on which the loop
takes ``REFERENCE_S``, which removes most of the drift while leaving any
change in favard itself in full.  The loop run that
follows an op is left out of that op's factor, so whatever the op leaves
behind (evicted caches, a grown heap) cannot slow the loop and so shrink
the op's own rescaled time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.fft
import scipy.linalg

# Loop time on the reference machine; it fixes the scale of every rescaled
# time the benchmark reports (about the loop's median between ops on a
# 2-vCPU x86 VM, where the ops have pushed its 16 MB out of nearby caches).
REFERENCE_S = 3.0e-3
WINDOW = 7  # loop samples on each side of an op that set its speed factor


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = np.linspace(0.0, 1.0, 512)
        self.Q = [np.exp(1j * np.linspace(0.0, k + 1.0, 512)) for k in range(8)]
        self.z = np.exp(1j * np.linspace(0.0, 9.0, 2048))
        A = rng.standard_normal((24, 24))
        self.A = A + A.T
        self.d = np.linspace(1.0, 2.0, 96)
        self.e = np.full(95, 0.5)
        self.big = np.ones(2 ** 21)  # 16 MB

    def __call__(self) -> float:
        """Seconds one pass of the loop takes now."""
        start = time.perf_counter()
        y = self.x
        for _ in range(12):
            y = y * 1.0001 + 0.5
        w = self.Q[0]
        for _ in range(6):
            for q in self.Q:
                w = w - np.vdot(q, w) * q
        scipy.fft.fft(self.z)
        np.linalg.eigh(self.A)
        scipy.linalg.eigh_tridiagonal(self.d, self.e)
        self.big[::8].sum()  # one double from each 64-byte line
        return time.perf_counter() - start


def speed_factors(loop_times: list[float]) -> list[float]:
    """REFERENCE_S over the median loop time in a window around each op.

    ``loop_times[i]`` is the loop run just before op ``i``; the one just
    after it, ``loop_times[i + 1]``, is left out of op ``i``'s window.
    """
    out = []
    for i in range(len(loop_times)):
        window = loop_times[max(0, i - WINDOW): i + 1] + loop_times[i + 2: i + WINDOW + 2]
        out.append(REFERENCE_S / statistics.median(window))
    return out
