"""A fixed calibration kernel that measures how fast the host runs right now.

Shared virtual machines change speed by tens of percent for minutes at a
time, and such drift moves every wall time a run measures.  The workload
process runs this kernel between its operations.  Each operation's time is
divided by the host's slowdown measured around it: the kernel's time over
its time on a reference host.  The result is the operation's time on the
reference host, which stays put while the host drifts but still moves when
the operation itself gets faster or slower.

The kernel has one part for each kind of work the mscs operations do,
because drift slows them by different amounts: elementwise arithmetic and
bincounts on a stack of integer arrays of a few hundred kilobytes (exact
correlation counting), FFTs (envelopes and float correlation), a pure-Python
loop with integer arithmetic and list indexing (per-call overhead, the
cyclotomic reduction), and a JSON round trip of an integer list (documents).
One sample runs every part once and takes about 35 ms; the parts are timed
one by one so the run record shows which kind of work the host slowed.  The
kernel never calls mscs, so a change to the program does not change it.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

PARTS = ("counts", "ffts", "loop", "json")
# Kernel time of one sample on the reference host (a 2-vCPU x86-64 VM at its
# fast speed).  Only a unit; changing it rescales every reported time.
REFERENCE_S = 0.0264


def slowdown(parts: list[float]) -> float:
    """How much slower than the reference host one sample ran."""
    return sum(parts) / REFERENCE_S


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.stack = rng.integers(0, 6, size=(3, 20000))
        self.signal = rng.standard_normal(1 << 14) + 0j
        self.items = [int(v) for v in rng.integers(0, 30, size=20000)]
        self.sample()  # first FFT and first loop run cold

    def _counts(self) -> int:
        stack, n = self.stack, self.stack.shape[1]
        total = 0
        for tau in range(1, 40, 2):
            diffs = (stack[:, : n - tau] - stack[:, tau:]) % 6
            total += int(np.bincount(diffs.ravel(), minlength=6)[0])
        return total

    def _ffts(self) -> float:
        total = 0.0
        for _ in range(8):
            spectrum = np.fft.fft(self.signal)
            total += float(np.fft.ifft(spectrum * np.conj(spectrum))[0].real)
        return total

    def _loop(self) -> int:
        acc, items, n = 0, self.items, len(self.items)
        for i in range(60000):
            acc = (acc + items[i % n] * i) % 1000003
        return acc

    def _json(self) -> int:
        return len(json.loads(json.dumps(self.items)))

    def sample(self) -> list[float]:
        """Seconds of each part of one kernel run, in ``PARTS`` order."""
        times, results = [], []
        for part in (self._counts, self._ffts, self._loop, self._json):
            t0 = perf_counter()
            results.append(part())
            times.append(perf_counter() - t0)
        if results[3] != len(self.items) or results[0] <= 0:
            raise AssertionError("calibration kernel produced a wrong result")
        return times
