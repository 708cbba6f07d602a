"""A job clock corrected for the speed of a shared host.

On a host shared with other tenants the same code runs at speeds up to
about 2x apart, switching within a second, so plain wall time measures the
neighbours as much as the program.  While a `SpeedClock` is running, a
timer signal interrupts the benchmark every `INTERVAL_S` seconds and times
a fixed reference kernel.  The kernel's time against its calibrated time
gives the host's slowness at that moment.  One untimed step first refills
the caches the workload has just used: timed cold, the kernel over-reacts
to a slow host (in one 40-second run of `fermat-14`, the slope of log job
time on log kernel time was 0.82 cold and 0.95 warm).

The host does not slow all work alike: on the reference host a big-int
multiplication slows by up to about 2x while a reduction by long division
slows by up to about 1.4x.  So the kernel has parts, each timed on its own,
and every job is corrected by the part that matches the work that
dominates it (`workloads.Job.kernel`):

- `fold`: three 8-kbit squarings, each with a Mersenne-style fold, the
  step of every fold-reduced chain.  It also tracks the interpreter-bound
  jobs of `many-small` better than an interpreter loop does, which at a
  few µs reads mostly the noise of being interrupted.
- `division`: one 8-kbit squaring reduced by `%`, the step of `pow()`.

A part's slowness at a sample is its time over its calibrated time.  A
job's corrected time is its wall time with every stretch between two
samples divided by the median slowness of its part over the `WINDOW`
samples on each side, and with the time spent in the kernel left out:

    corrected = sum over stretches of  stretch_s / slowness

At the calibrated speed a corrected time equals the wall time.  The
correction measures the host, not the code under test, apart from what
the workload leaves in the caches (README.md): a faster program has fewer
and shorter stretches, and its corrected time falls in proportion.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.010
# Samples on each side of a stretch whose median slowness it takes.
WINDOW = 3

_BITS = 8192
_BASE = (1 << _BITS) // 3 | 1
_MASK = (1 << _BITS) - 1
_FERMAT = (1 << _BITS) + 1


def fold_step() -> int:
    """One 8-kbit squaring and its Mersenne-style fold."""
    y = _BASE * _BASE
    return (y & _MASK) + (y >> _BITS)


def fold_steps() -> int:
    """Three fold steps: the `fold` part of the kernel."""
    return fold_step() + fold_step() + fold_step()


def division_step() -> int:
    """One 8-kbit squaring reduced by long division, as in `pow()`."""
    return (_BASE * _BASE) % _FERMAT


# Each part and its calibrated time: about its 5th-percentile time inside
# the timer signal, over runs of every workload on a 2-CPU Intel Xeon
# (Sapphire Rapids) VM with Python 3.11.7.  They fix the scale of corrected
# times, not their ratios.
PARTS = {
    "fold": (fold_steps, 100.0e-6),
    "division": (division_step, 160.0e-6),
}


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class SpeedClock:
    """Samples the reference kernel on a timer and corrects intervals by it.

    `parts` names the kernel parts (keys of `PARTS`) to time at each
    sample.  Use as a context manager around the timed passes;
    `corrected(t0, t1, part)` converts a `perf_counter` interval inside it.
    Only one may run at a time, in the main thread.
    """

    def __init__(self, parts=("fold",)):
        self.parts = [(name, *PARTS[name]) for name in parts]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowness: dict[str, list[float]] = {name: [] for name in parts}

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        fold_step()  # warm-up, untimed
        t0 = perf_counter()
        for name, step, ref_s in self.parts:
            step()
            t1 = perf_counter()
            self.slowness[name].append((t1 - t0) / ref_s)
            t0 = t1
        self.starts.append(start)
        self.ends.append(t0)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t0: float, t1: float, part: str = "fold") -> float:
        """Corrected seconds of the interval [t0, t1] by `part`; see the module docstring."""
        slowness = self.slowness[part]
        if not slowness:
            return t1 - t0
        # Stretches: [end of sample k-1, start of sample k], and the open
        # stretches before the first sample and after the last one.
        k = bisect.bisect_right(self.ends, t0)
        total = 0.0
        edge = t0
        while edge < t1:
            stop = self.starts[k] if k < len(slowness) else t1
            span = min(stop, t1) - edge
            if span > 0:
                lo, hi = max(0, k - WINDOW), min(len(slowness), k + WINDOW)
                if lo >= hi:
                    lo, hi = len(slowness) - 1, len(slowness)
                total += span / _median(slowness[lo:hi])
            if k >= len(slowness):
                break
            edge = max(edge, self.ends[k])
            k += 1
        return total
