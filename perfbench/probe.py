"""Host-speed probe.

The measuring host's speed drifts by tens of percent over seconds to
minutes, whatever runs on it.  Timed code therefore also times a fixed
pure-Python probe while it runs, and its time is rescaled to the speed at
which the probe takes ``REF_S``.  Standard library only, so that set-up can
be probed before the library is imported.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
# about the probe's mean time on the measuring host when it is quiet; only
# ratios between runs matter
REF_S = 1.3e-3


def _probe() -> int:
    """Fixed work like the library's: build, rotate and hash short tuples.
    Of the kernels tried, its speed tracked the workloads' best."""
    recent: list = []
    seen = set()
    for i in range(1500):
        t = tuple(range(i & 7, (i & 7) + 6))
        recent.append(t[1:] + t[:1])
        seen.add(t)
        if len(recent) > 64:
            recent = recent[32:]
    return len(seen)


def timed() -> float:
    t0 = time.perf_counter()
    _probe()
    return time.perf_counter() - t0


@contextmanager
def sampling(samples: list[float]):
    """Append a probe time to samples every INTERVAL_S inside the block."""

    def on_tick(signum, frame):
        samples.append(timed())

    previous = signal.signal(signal.SIGALRM, on_tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def normalize(elapsed: float, samples: list[float]) -> float:
    """elapsed (which includes the samples) without the samples' own time,
    rescaled to the reference speed."""
    return (elapsed - sum(samples)) * REF_S / statistics.fmean(samples)
