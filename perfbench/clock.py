"""Host time corrected for the machine's speed of the moment.

On a shared host the same single-threaded Python code runs up to 1.7 times
slower in some stretches of seconds than in others, and a vCPU's speed moves
independently of its sibling's, so no statistic over one run removes the
drift from a plain wall-clock time. This clock measures the speed while the
program runs: an interval timer interrupts the process every PROBE_INTERVAL_S
and runs a fixed piece of pure-Python work (the probe), on the same CPU and
in the same interpreter as the program. A stretch of program time is then
scaled by how fast the probes around it ran, relative to REFERENCE_PROBE_S:

    calibrated seconds = (wall - probe time) * mean(REFERENCE_PROBE_S / probe)

which is the time the stretch would have taken on a machine that runs the
probe in REFERENCE_PROBE_S. Probe time is left out of the wall time. A
stretch too short to hold a probe is scaled by the nearest probe before it.
"""

from __future__ import annotations

import signal
import time

PROBE_INTERVAL_S = 0.04
PROBE_LOOPS = 6000
# about the probe's duration when run back to back on a 2-vCPU Xeon KVM guest
# (Python 3.11); it sets only the unit of calibrated seconds
REFERENCE_PROBE_S = 0.0006


def probe_work() -> int:
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return total


class CalibratedClock:
    """Context manager that probes the machine's speed while it is active.

    ``span()`` returns a handle whose ``stop()`` gives the program's host
    seconds (probe time left out) and calibrated seconds since it was made.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.probes: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self) -> "CalibratedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(signal.SIGALRM, None)  # a probe before the first span
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self) -> "Span":
        return Span(self)


class Span:
    def __init__(self, clock: CalibratedClock):
        self.clock = clock
        self.first = len(clock.probes)
        self.start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        end = time.perf_counter()
        probes = self.clock.probes
        # the handler runs between bytecodes, so a probe lies wholly inside or outside
        inside = [p for p in probes[self.first:] if self.start <= p[0] < end]
        before = [p for p in probes if p[0] < self.start][-1:]
        return calibrate(end - self.start, inside, before)


def calibrate(wall: float, inside, before,
              reference: float = REFERENCE_PROBE_S) -> tuple[float, float]:
    """(host, calibrated) seconds of a stretch of ``wall`` seconds, given the
    (start, duration) probes that ran inside it and the last one before it.
    Host seconds are the wall time less the probes'."""
    durations = [d for _, d in inside] or [d for _, d in before]
    if not durations:
        raise ValueError("no probe ran before or during the span")
    work = wall - sum(d for _, d in inside)
    speed = sum(reference / d for d in durations) / len(durations)
    return work, work * speed
