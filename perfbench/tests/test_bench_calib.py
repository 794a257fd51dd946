"""The calibrator: chunks run interleaved with the main thread, are taken
out of a window's time, and the timer and handler are put back."""

from __future__ import annotations

import signal
import time

import pytest

import calib


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def test_chunks_interleave_and_are_accounted_per_window():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Calibrator(interval_s=0.05) as cal:
        t0 = time.perf_counter()
        _busy(0.5)
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    own, ref = cal.window(t0, t1)
    inside = [d for s, d in cal.chunks if t0 <= s and s + d <= t1]
    assert len(inside) >= 3
    assert own == pytest.approx((t1 - t0) - sum(inside))
    assert ref == pytest.approx(own * calib.REFERENCE_S / (sum(inside) / len(inside)))


def test_window_without_chunks():
    cal = calib.Calibrator()
    assert cal.window(0.0, 1.0) == (1.0, None)
