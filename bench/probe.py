"""Host-speed probe: how fast the host runs while a command runs.

On a shared host the speed of this program drifts by up to 2x for tens of
seconds at a time, longer than one benchmark run, so repeating a command
inside a run cannot average the slow phases out.  While a command runs, a
SIGALRM handler samples a fixed probe every ``PERIOD_S`` in two parts: a
compute part (interpreter arithmetic, a small dict, one small matrix
product) and a memory part (random reads from a 32 MiB array, larger than
the caches, and a walk through scattered Python objects).  Both are timed in
thread CPU time, so a GIL hand-off to the CLI's worker thread in mid-sample
is not counted.  The host speed during the command is the geometric mean of
the two parts' medians; either part alone tracked the program's slow phases
less well.  A command's time multiplied by ``scale()`` is its time at a
fixed host speed, the speed at which that geometric mean is ``NOMINAL_S``.
The probe is the benchmark's own code, so a change to the package moves the
scaled time exactly as it moves the measured one.
"""

from __future__ import annotations

import contextlib
import math
import resource
import signal
import statistics
from time import thread_time

import numpy as np

PERIOD_S = 0.1           # one sample per 100 ms of a command
# About the probe's typical value on a 2-vCPU x86-64 cloud host, so that
# scaled times read close to measured ones there.
NOMINAL_S = 8e-4
COMPUTE = 2000           # interpreter loop steps of the compute part
TABLE_WORDS = 4 << 20    # 32 MiB of float64
READS = 2048
CELLS = 100_000
WALK = 1500


def _resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


class HostProbe:
    """Samples the probe while a ``sampling()`` block runs.

    ``footprint`` is the resident memory the probe's data added, so a
    process's peak memory can be reported without it.
    """

    def __init__(self, seed=0):
        before = _resident_bytes()
        rng = np.random.default_rng(seed)
        self._small = rng.standard_normal((8, 8))
        self._table = rng.standard_normal(TABLE_WORDS)
        self._reads = rng.integers(0, TABLE_WORDS, READS)
        self._cells = [[i] for i in range(CELLS)]
        self._walk = rng.permutation(CELLS)[:WALK].tolist()
        self.footprint = max(0, _resident_bytes() - before)
        self.samples = []

    def sample(self, *_):
        """One (compute, memory) sample, in seconds."""
        t0 = thread_time()
        total, seen = 0, {}
        for i in range(COMPUTE):
            total += i * i % 7
            seen[i & 63] = total
        self._small @ self._small
        t1 = thread_time()
        self._table[self._reads].sum()
        for i in self._walk:
            total += self._cells[i][0]
        self.samples.append((t1 - t0, thread_time() - t1))

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` inside the block (at least once)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:
                self.sample()

    def medians(self):
        """Median compute and memory part of the last block's samples."""
        return tuple(statistics.median(part) for part in zip(*self.samples))

    def scale(self):
        """Factor from measured time to time at the fixed host speed, for
        the last ``sampling()`` block."""
        compute, memory = self.medians()
        return NOMINAL_S / math.sqrt(compute * memory)
