"""Self-tests of the benchmark's calibrated clock.

Run from the repository root: python3 -m pytest perfbench/test_clock.py
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from clock import CalibratedClock, calibrate  # noqa: E402


def test_probe_time_is_left_out_and_speed_scales():
    # 10 s of wall, two probes of 0.5 s each: 9 s of program time. The probes
    # ran at half and at a quarter of the reference speed: mean speed 0.375.
    inside = [(1.0, 0.5), (6.0, 0.5)]
    host, calibrated = calibrate(10.0, inside, [], reference=0.25)
    assert host == pytest.approx(9.0)
    assert calibrated == pytest.approx(9.0 * 0.5)
    host, calibrated = calibrate(10.0, [(1.0, 0.5), (6.0, 1.0)], [], reference=0.25)
    assert host == pytest.approx(8.5)
    assert calibrated == pytest.approx(8.5 * (0.5 + 0.25) / 2)


def test_short_span_uses_the_probe_before_it():
    host, calibrated = calibrate(0.01, [], [(0.0, 0.002)], reference=0.001)
    assert host == pytest.approx(0.01)
    assert calibrated == pytest.approx(0.005)
    with pytest.raises(ValueError):
        calibrate(0.01, [], [], reference=0.001)


def test_clock_probes_during_a_span_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with CalibratedClock(interval=0.01) as clock:
        span = clock.span()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        host, calibrated = span.stop()
        probed = len(clock.probes)
    assert probed >= 5
    assert 0.0 < host < 0.2
    assert calibrated > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.05)
    assert len(clock.probes) == probed  # no probe after exit
