"""A clock that reads in seconds at a fixed reference speed.

Shared hosts change speed while a run is going: on the 2-vCPU machine this
benchmark was built on, the same pass took 0.86 s or 1.6 s depending on the
moment, switching every few seconds, and raw medians of whole runs moved by
15%.  SpeedClock measures that speed while the program runs: inside a `with`
block an interval timer interrupts every TICK_S for a probe, a fixed loop of
about 4 ms of tuple-keyed dict updates and integer arithmetic, the library's
own operation mix.  Probe time is excluded from now(), and scale() converts
the block's seconds to seconds at the reference speed, the speed at which a
probe takes REF_PROBE_S (the faster state of that machine, Python 3.11);
scale_between() does the same for a part of the block, from the probes
near it.  Pass times scaled this way spread 5% where raw ones spread 21%.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.1
PROBE_LOOPS = 20_000
REF_PROBE_S = 0.0038


class BudgetExceeded(Exception):
    """The run's deadline passed inside a timed block."""


class SpeedClock:
    def __init__(self, deadline):
        self.deadline = deadline
        self.paused = 0.0
        self.probes = []
        self.probe_times = []
        self.mark = 0
        self._probing = False

    def probe(self):
        """Run the fixed loop once and record its seconds."""
        self._probing = True
        self.probe_times.append(self.now())
        t0 = time.perf_counter()
        acc = {}
        for i in range(PROBE_LOOPS):
            key = (i % 97, i % 89)
            acc[key] = acc.get(key, 0) + i * i
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self.paused += dt
        self._probing = False
        return dt

    def now(self):
        """Seconds from an arbitrary origin, not counting probes."""
        while True:
            p = self.paused
            t = time.perf_counter()
            if p == self.paused:   # no probe ran in between
                return t - p

    def _tick(self, signum, frame):
        if time.perf_counter() > self.deadline:
            raise BudgetExceeded
        if not self._probing:
            self.probe()

    def __enter__(self):
        self.mark = len(self.probes)
        self.probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()
        return False

    def scale(self, since=None):
        """Reference seconds per second, from the probes since `since`
        (default: the start of the last `with` block)."""
        return REF_PROBE_S / statistics.fmean(self.probes[self.mark if since is None else since:])

    def scale_between(self, t0, t1):
        """Reference seconds per second over the now()-interval [t0, t1],
        from the probes within one tick of it."""
        near = [d for t, d in zip(self.probe_times, self.probes)
                if t0 - TICK_S <= t <= t1 + TICK_S]
        return REF_PROBE_S / statistics.fmean(near) if near else self.scale()
