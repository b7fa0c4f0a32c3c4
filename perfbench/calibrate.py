"""CPU-speed probe: converts measured seconds into reference seconds.

On a shared host the speed of one vCPU drifts by tens of percent within
seconds (another tenant on the sibling hyperthread, frequency changes);
one repetition of the same workload measured 2.6 s to 5.8 s within ten
minutes on a 2-vCPU VM.  ``SpeedProbe`` samples the speed while a
repetition runs: every ``PERIOD`` seconds a SIGALRM handler runs ``kernel``
(about 1 ms) in the main thread and records the CPU time it took.  A
measured time t becomes ``t × REFERENCE_S / mean(kernel time)``: the time
the same work would take on a CPU that runs the kernel in exactly
``REFERENCE_S``.  The handler's own wall and CPU time is recorded so it can
be subtracted.

The kernel belongs to the benchmark and imports nothing from the package,
so a change to the package cannot move it.  Its mix follows the package's:
a scalar RK4 loop with closures, list appends and bisect (like the
integrator) and small numpy array and scalar calls (like the threshold
sweeps).
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REFERENCE_S = 1e-3
PERIOD = 0.025
STEPS = 100
SWEEPS = 10
_W = np.linspace(-1.5, 0.0, 4096)
_FORCING = 0.3 * np.cos(_W)


def _scalar_part() -> float:
    ts, xs = [0.0], [1.0]
    h = 0.01

    def past(u: float) -> float:
        j = min(max(bisect.bisect_right(ts, u) - 1, 0), len(ts) - 2)
        return xs[j] + (xs[j + 1] - xs[j]) * (u - ts[j]) / h

    def accel(t: float, x: float) -> float:
        u = t - 0.5
        return -(past(u) if u > h else x)

    x, v = 1.0, 0.0
    for _ in range(STEPS):
        t0 = ts[-1]
        k1x, k1v = v, accel(t0, x)
        k2x, k2v = v + 0.5 * h * k1v, accel(t0 + 0.5 * h, x + 0.5 * h * k1x)
        k3x, k3v = v + 0.5 * h * k2v, accel(t0 + 0.5 * h, x + 0.5 * h * k2x)
        k4x, k4v = v + h * k3v, accel(t0 + h, x + h * k3x)
        x += (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v += (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        ts.append(t0 + h)
        xs.append(x)
    return x


def _array_part() -> float:
    beta = np.ones_like(_W)
    acc = 0.0
    for _ in range(SWEEPS):
        g = np.maximum(beta, _FORCING)
        i0 = np.concatenate(([0.0], np.cumsum(0.5 * (g[:-1] + g[1:]))))
        for probe in (-1.2, -0.7, -0.3):
            j = np.clip(np.floor(np.atleast_1d(probe) * 10.0).astype(int),
                        0, _W.size - 2)
            acc += float(i0[j][0])
        beta = 1.0 - 1e-4 * i0
    return acc


def kernel() -> float:
    """CPU seconds one run of the fixed kernel takes now."""
    start = time.thread_time()
    _scalar_part()
    _array_part()
    return time.thread_time() - start


class SpeedProbe:
    """Runs ``kernel`` every ``PERIOD`` seconds of wall time on SIGALRM.

    ``samples`` holds (wall start, wall spent, CPU spent, kernel CPU time)
    per run of the handler.
    """

    def __init__(self):
        self.samples: list[tuple] = []

    def _handler(self, signum, frame):
        wall0, cpu0 = time.monotonic(), time.process_time()
        k = kernel()
        self.samples.append((wall0, time.monotonic() - wall0,
                             time.process_time() - cpu0, k))

    def sample(self, n: int) -> None:
        """Run the kernel ``n`` times now, recording them as samples."""
        for _ in range(n):
            self._handler(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, lo: float, hi: float) -> tuple:
        """(wall, CPU) seconds the handler took in samples started in
        [lo, hi)."""
        inside = [s for s in self.samples if lo <= s[0] < hi]
        return sum(s[1] for s in inside), sum(s[2] for s in inside)

    def scale(self) -> float:
        """Reference seconds per measured second, over all samples."""
        if not self.samples:
            return 1.0
        mean = sum(s[3] for s in self.samples) / len(self.samples)
        return REFERENCE_S / mean
