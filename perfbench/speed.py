"""Machine speed, sampled beside the work it scales.

The machine this benchmark was built on changes speed by itself, by up
to a third from one second to the next, in CPU time as well as in wall
time. A run that averaged its speed over minutes could not tell that
apart from a change to the package. So a short fixed job, the probe,
runs inside every benchmark process every PROBE_EVERY_S seconds, from a
timer signal, and in the parent right before each process starts and
right after it ends. ``scaled`` turns a stretch of wall time into
reference seconds: each gap between two probes counts at the speed the
two probes read, and the probes' own time is left out.

The probe does exact rational arithmetic, bit loops and dict updates,
using only the standard library, so a change to the package cannot
move it; only the machine's speed does.

A process's start, up to the end of its imports, is loader and file
work more than arithmetic, and slows less than the probe in a slow
spell. That stretch is scaled by ``interpreter_start`` instead: a fresh
interpreter that imports numpy, timed right before the process starts.
"""

from __future__ import annotations

import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

PROBE_ITERATIONS = 2400
# A probe's duration at the reference speed: the speed at which a
# 120,000-iteration run of the same loop takes 0.5 s.
PROBE_S = PROBE_ITERATIONS * 0.5 / 120_000
PROBE_EVERY_S = 0.1
# interpreter_start() at the reference speed
START_S = 0.15


def probe():
    """Run the fixed job once; returns its (start, end) on time.monotonic()."""
    t0 = time.monotonic()
    rng = random.Random(7)
    total = Fraction(0)
    seen = {}
    for i in range(1, PROBE_ITERATIONS + 1):
        total += Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        if i % 50 == 0:
            total = Fraction(total.numerator % 10**30, total.denominator % 10**30 + 1)
        mask = (i * 2654435761) & 0xFFFFF
        bits = 0
        while mask:
            mask &= mask - 1
            bits += 1
        seen[(i * 7919) % 10007] = bits + total.numerator % 97
    min(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return t0, time.monotonic()


def interpreter_start():
    """Time a fresh interpreter that imports numpy and exits; returns seconds."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.monotonic() - t0


class Sampler:
    """Probes a process's speed from SIGALRM while its main thread works."""

    def __init__(self):
        self.probes = []
        self.paused = 0.0  # seconds spent in probes so far

    def _probe(self, *_):
        t0, t1 = probe()
        self.probes.append((t0, t1))
        self.paused += t1 - t0

    def _tick(self, *_):
        self._probe()
        # re-armed after the probe, so probes never queue up
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def stop(self):
        """Stop the timer and probe once more, so the last stretch is bracketed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()

    def work_clock(self):
        """time.monotonic() without the time spent in probes."""
        return time.monotonic() - self.paused


def scaled(start, end, probes, reference=True):
    """Seconds of work between start and end, leaving out probe time.

    probes are (start, end) pairs in time order, the first ending before
    ``start`` and the last starting after ``end``. With ``reference``,
    each gap between two probes is multiplied by PROBE_S over the mean
    of their durations; without, it counts as measured.
    """
    total = 0.0
    for (a0, a1), (b0, b1) in zip(probes, probes[1:]):
        lo, hi = max(start, a1), min(end, b0)
        if hi > lo:
            total += (hi - lo) * (2 * PROBE_S / (a1 - a0 + b1 - b0) if reference else 1.0)
    return total
