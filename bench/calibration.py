"""Host-speed calibration: a fixed kernel timed between missions and during them.

On a shared host the speed of one process can drift by tens of percent over
seconds to minutes, far more than the changes the benchmark must resolve.
The kernel below does a fixed mix of the work the simulator's tick loop
does (small frozen dataclasses, ``math`` calls, list sorting, 3-vector
numpy calls) and shares no code with the simulator, so a change to the
simulator cannot change the kernel's time. The time of a mission divided
by the host factor measured around it is the time the mission would have
taken at the nominal host speed.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Kernel time at the nominal host speed: a 2-core Xeon VM in a quiet period.
NOMINAL_S = 0.9e-3
REPEATS = 3
# Drift moves on a scale of seconds, so a mission of several seconds is
# sampled while it runs too, this often.
INTERVAL_S = 0.25


@dataclass(frozen=True)
class _State:
    north: float
    east: float
    height: float
    chi: float
    speed: float


def _derivative(y: tuple[float, ...], bank: float) -> tuple[float, ...]:
    north, east, height, chi, speed = y
    return (speed * math.cos(chi), speed * math.sin(chi), 0.0, 9.81 * math.tan(bank) / speed, 0.0)


def _kernel() -> float:
    """A toy fleet: 4 vehicles, 12 ticks of pursuit, RK4, gusts and a neighbour ranking."""
    rng = np.random.default_rng(7)
    states = [_State(-1000.0 * (i + 1), 50.0 * i, 110.0, 0.1 * i, 13.5) for i in range(4)]
    gusts = [np.zeros(3) for _ in states]
    decay = np.exp(-1.0 / np.array([14.8, 14.8, 3.7]))
    acc = 0.0
    for _ in range(12):
        ranked = []
        for i, s in enumerate(states):
            for j, o in enumerate(states):
                if i != j:
                    d = math.sqrt((s.north - o.north) ** 2 + (s.east - o.east) ** 2 + (s.height - o.height) ** 2)
                    ranked.append((-1.0 / d, i, j))
        ranked.sort()
        nxt = []
        for i, s in enumerate(states):
            gusts[i] = decay * gusts[i] + np.sqrt(1.0 - decay * decay) * rng.standard_normal(3)
            bearing = math.atan2(-s.east, -s.north)
            err = (bearing - s.chi + math.pi) % (2.0 * math.pi) - math.pi
            bank = min(max(0.8 * err + 0.01 * float(gusts[i][1]), -0.6), 0.6)
            y = (s.north, s.east, s.height, s.chi, s.speed)
            k1 = _derivative(y, bank)
            k2 = _derivative(tuple(a + 0.5 * b for a, b in zip(y, k1)), bank)
            k3 = _derivative(tuple(a + 0.5 * b for a, b in zip(y, k2)), bank)
            k4 = _derivative(tuple(a + b for a, b in zip(y, k3)), bank)
            y = tuple(a + (b + 2.0 * c + 2.0 * d + e) / 6.0 for a, b, c, d, e in zip(y, k1, k2, k3, k4))
            nxt.append(_State(*y))
            acc += float(np.linalg.norm(np.array(y[:3])))
        states = nxt
    return acc + ranked[0][0]


def host_factor() -> float:
    """How much slower than nominal the host runs right now (1.0 = nominal)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / NOMINAL_S


class HostClock:
    """Host-factor samples taken between missions and, from a timer, inside them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.samples.append(host_factor())
        # Count the time before clearing the flag, so a sample that the
        # timer starts in between is not counted twice.
        self.spent_s += time.perf_counter() - t0
        self._sampling = False

    def now(self) -> float:
        """``time.perf_counter()`` less the time spent sampling so far."""
        while True:
            spent = self.spent_s
            t = time.perf_counter()
            if self.spent_s == spent:  # no sample ran between the two reads
                return t - spent

    @contextlib.contextmanager
    def ticking(self) -> Iterator[None]:
        """Also sample every ``INTERVAL_S`` of wall time, from a ``SIGALRM`` timer.

        The handler runs on the main thread between two bytecodes of
        whatever the simulator is doing, so a mission of several seconds is
        sampled while it runs, whatever functions it calls.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
