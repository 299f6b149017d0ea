"""Host-speed correction for timed calls on a shared host.

On a host whose cores are shared with other tenants, the same study can
run at half speed for seconds to a minute at a time, and the medians of
whole runs then spread by 20-30 % with no change to the program.
SpeedSampler times a call while measuring how fast the host is running
during it:

- a fixed reference kernel (below; it calls nothing from optnet) runs
  once before the call, every INTERVAL_S of wall time during it (from a
  SIGALRM handler, between bytecodes of the main thread), and once after;
- the kernel's own time is taken out of the call's wall time;
- each sample's time is replaced by the median of itself and its two
  neighbours, so one sample slowed by an interrupt or a page fault does
  not count as a slow host;
- each stretch of the call between two kernel samples is multiplied by
  the mean of the two samples' speeds (REFERENCE_S over their time), so
  a stretch that ran while the kernel took twice its reference time
  counts half.

The corrected time is therefore the call's wall time expressed at the
host speed at which the kernel takes REFERENCE_S. Both the raw and the
corrected time are kept; which one a metric uses is stated in NOTES.md.

The correction assumes the call's work pauses while the kernel runs,
which holds while all of the call's work runs on the main thread (the
engine uses its thread pool only when a round holds more than one
message).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# about the kernel's time on the 2-core host the benchmark was sized on,
# in its fastest state; a constant, so only ratios between runs matter
REFERENCE_S = 0.002

_RNG = np.random.default_rng(20211001)
_A = _RNG.standard_normal((120, 40))
_B = _RNG.standard_normal(120)


def reference_kernel() -> float:
    """Small numpy array operations and small LAPACK least-squares
    solves: of interpreted loops, array operations, LAPACK and memory
    streaming, these slowed down most like the workloads on the shared
    host (NOTES.md)."""
    w = np.zeros(_A.shape[1])
    for _ in range(100):
        w += 0.001 * (_A.T @ (_B - _A @ w))
    for _ in range(4):
        coef = np.linalg.lstsq(_A, _B, rcond=None)[0]
    return float(w @ coef)


class SpeedSampler:
    """Times calls with the host-speed correction described above."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self._samples.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def time_call(self, fn):
        """Run fn(); return (result, timing) where timing holds wall_s
        (kernel samples included), net_s (excluded), corrected_s and
        slowdown (median kernel time over REFERENCE_S). An exception from
        fn propagates after the timer is stopped."""
        self._samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        before = self._samples[0]
        inner = [s for s in self._samples[1:]
                 if s[0] >= start and s[1] <= end]
        self._sample()
        samples = [before, *inner, self._samples[-1]]
        # boundaries of the call's own work: start, each inner sample's
        # start and end, end; stretch j lies between samples j and j + 1
        edges = [start] + [t for s in inner for t in s] + [end]
        took = [t1 - t0 for t0, t1 in samples]
        speed = [REFERENCE_S / statistics.median(took[max(0, i - 1):i + 2])
                 for i in range(len(took))]
        net = corrected = 0.0
        for j in range(len(inner) + 1):
            stretch = edges[2 * j + 1] - edges[2 * j]
            net += stretch
            corrected += stretch * (speed[j] + speed[j + 1]) / 2
        slowdown = statistics.median(took) / REFERENCE_S
        return result, {"wall_s": end - start, "net_s": net,
                        "corrected_s": corrected, "slowdown": slowdown,
                        "samples": len(samples)}
