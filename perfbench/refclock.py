"""A reference clock for a machine whose speed drifts.

On a shared host the same pure-Python code runs up to about 1.7x slower for
stretches of a fraction of a second to a few seconds (most likely other
tenants of the host), with no steal time to show for it, so CPU time
drifts as much as wall time.  ``RefClock`` measures that speed while an
operation runs: a SIGALRM every ``PERIOD`` seconds times ``probe()``, a
fixed pure-Python computation of the same kind as the library's (small ints,
tuples as dict keys, lists, rational sums), and books the stretch of the
operation since the last tick at ``PROBE_S / probe seconds`` of its length.
The operation's reference time is the sum: its seconds at the speed at which
one probe takes ``PROBE_S``.  A change to the library moves the operation's
time and not the probe's; a change in the machine's speed moves both.  The
probes' own time is left out.

This file is part of the benchmark, not of the code under test: change it
and every figure changes with it.
"""

from __future__ import annotations

import gc
import math
import signal
import time

# Seconds of one probe() at the machine's usual fast speed (2-vCPU Xeon VM,
# Python 3.11).  Only a unit: reference seconds are PROBE_S * t / probe.
PROBE_S = 0.00012
PERIOD = 0.01


def probe() -> int:
    index = {}
    for i in range(400):
        index[(i % 17, i // 17)] = i * i % 11
    row = [0] * 16
    for (a, b), v in index.items():
        row[(a + b) % 16] += v
    num, den = 0, 1
    for i in range(1, 16):  # a Fraction sum, spelled out
        num, den = num * i + (row[i] + 1) * den, den * i
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return den


def _time_probe() -> float:
    """Seconds of one probe, with the cyclic collector held off: a
    collection that the probe's allocations set off scans the workload's
    heap, which is the workload's cost, not the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Times one operation at a time, in wall and reference seconds.

    ``with clock:`` around the operation; then ``clock.wall`` and
    ``clock.ref`` hold its seconds (probes excluded), and ``clock.ticks``
    the number of probes taken inside it."""

    def __init__(self):
        self.wall = self.ref = 0.0
        self.ticks = 0
        self._active = self._installed = False

    def _book(self, now: float, probe_s: float) -> None:
        length = now - self._since
        self.wall += length
        self.ref += length * PROBE_S * 2 / (self._last + probe_s)
        self._last = probe_s

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        now = time.perf_counter()
        p = _time_probe()
        self._book(now, p)
        self.ticks += 1
        self._since = time.perf_counter()

    def __enter__(self):
        if not self._installed:  # once: a late tick must never meet SIG_DFL
            signal.signal(signal.SIGALRM, self._tick)
            self._installed = True
        self.wall = self.ref = 0.0
        self.ticks = 0
        self._last = _time_probe()
        self._active = True
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        now = time.perf_counter()
        self._active = False
        self._book(now, _time_probe())
        return False
