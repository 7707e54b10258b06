"""Host-speed correction for the benchmark's end-to-end timings.

The reference machine is a VM on a shared host.  How fast it runs the
same Python code drifts by tens of percent over seconds, with the load
of its neighbours.  A wall time alone therefore measures the neighbours
as much as the program.

``Pacer`` measures the host's speed with a fixed probe loop: once
between commands, and every ``TICK_S`` seconds while a command runs
(from a SIGALRM handler in this thread, so no second thread or process
competes with the program).  A command's time at nominal speed is its
own time (wall time minus the probes that ran inside it) scaled by
``NOMINAL_ROUND_S`` over the mean probe round seen before, during and
after it.  The probe does not depend on the library, so a program that
does more work still reads slower by the same factor.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NOMINAL_ROUND_S = 3.3e-6  # one probe round on a quiet core of the reference machine
BETWEEN_ROUNDS = 1500  # probe length between commands (about 5 ms)
TICK_ROUNDS = 100  # probe length on each tick inside a command
TICK_S = 0.02

_MATRIX = np.arange(64, dtype=np.int64).reshape(8, 8)


def probe(rounds: int) -> float:
    """Seconds per round of a fixed loop of small numpy operations and dict
    updates, the mix the library runs, so it slows as the library does."""
    start = perf_counter()
    d = {}
    for i in range(rounds):
        b = (_MATRIX * (i % 7)) % 5
        d[i % 97] = int(b[i % 8].sum())
    return (perf_counter() - start) / rounds


class Pacer:
    """Times code at the host's nominal speed; see the module docstring."""

    def __init__(self):
        self.last = probe(BETWEEN_ROUNDS)
        self._rounds: list[float] = []
        self._stolen = 0.0  # seconds spent in tick probes since ticking() began
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a tick's probe
            return
        self._busy = True
        start = perf_counter()
        try:
            self._rounds.append(probe(TICK_ROUNDS))
        finally:
            self._stolen += perf_counter() - start
            self._busy = False

    @contextmanager
    def ticking(self):
        """Probe every TICK_S seconds inside the block."""
        self._rounds, self._stolen = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def settle(self, elapsed: float) -> tuple[float, float]:
        """After a ``ticking`` block whose code took ``elapsed`` wall seconds:
        its own time and its time at nominal speed.  Probes once more, and
        that probe is the next block's 'before'."""
        after = probe(BETWEEN_ROUNDS)
        speed = statistics.fmean([self.last, after, *self._rounds])
        self.last = after
        own = elapsed - self._stolen
        return own, own * NOMINAL_ROUND_S / speed
