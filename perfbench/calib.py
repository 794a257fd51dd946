"""Machine-speed calibration interleaved with the timed operations.

On a shared host the speed of a virtual CPU drifts by tens of percent over
seconds, with the load that other tenants put on the physical core. The
drift is common to everything that runs on that CPU, so a fixed reference
kernel timed at the same moments as the program measures it.

`Calibrator` runs `kernel()` from a SIGALRM handler every `interval`
seconds, interleaved with whatever the main thread is doing, and records
when each chunk ran and how long it took. For a timed window it reports the
chunk time spent inside the window (to subtract from the window's wall
time) and the mean chunk duration (the machine's current speed). A window's
program time times REFERENCE_S / mean chunk duration is the time the window
would have taken on a machine where a chunk takes REFERENCE_S.

The kernel never calls the program: small numpy matrix products, a 6x6
solve and Python scalar arithmetic, the mix of the filter's inner loops.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

CHUNK_ITERATIONS = 1000
REFERENCE_S = 0.020  # chunk duration on an unloaded core of the reference machine
INTERVAL_S = 0.4


def kernel(iterations: int = CHUNK_ITERATIONS) -> float:
    a = 0.5 * np.eye(6)
    b = np.ones(6)
    acc = 0.0
    for _ in range(iterations):
        c = a @ a.T + 0.1 * a
        b = np.linalg.solve(c + np.eye(6), b)
        b = b / math.sqrt(float(b @ b))
        m = np.array([[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]])
        acc += float(m[0, 1])
    return acc


class Calibrator:
    """Context manager that interleaves kernel chunks with the main thread.

    Only for single-threaded, single-process timing: the chunks run in the
    main thread of this process, and forked children do not inherit the
    timer.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.chunks: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.chunks.append((start, time.perf_counter() - start))

    def window(self, start: float, end: float) -> tuple[float, float | None]:
        """Wall time of [start, end] without the chunks that ran inside it,
        and that time rescaled to the reference speed (None when no chunk
        ran in the window)."""
        inside = [d for s, d in self.chunks if start <= s and s + d <= end]
        own = end - start - math.fsum(inside)
        if not inside:
            return own, None
        return own, own * REFERENCE_S * len(inside) / math.fsum(inside)
