"""The host's speed, measured beside the workload with the benchmark's own code.

On a shared host the CPU time of one fixed piece of work drifts: the same
Paris31 solve took 0.85 to 1.8 s of CPU within minutes, in phases lasting
from seconds to minutes. The median of one run's rounds follows the phase the
run fell into, and over ten runs it spread by 0.25 to 0.36 of its median.

The gauge measures that speed with units of fixed work from `reference.py`:
the exhaustive search over an 8-node, 6-layer matrix drawn once from a fixed
seed. It is pure Python in the style of the package's solver, written apart
from `tdvrp`, so a change to the package cannot move it. While the rounds
run, a CPU-time timer (SIGPROF) interrupts the workload every `INTERVAL`
seconds of CPU and runs one unit, so the gauge samples the host's speed
densely through every call (a gauge run only between rounds, seconds apart,
did not follow the drift). The workloads time their calls with `clock()`:
the difference of two readings is the call's CPU time without the gauge's
units, divided by the call's speed factor, the gauge's seconds per unit
during the call over `REFERENCE_UNIT_S`: CPU seconds at the reference
speed. A call that ran fewer than `RECENT` units (under a second) takes the
factor of the last `RECENT` units.

A set-up is short and partly spent in a child interpreter, which the timer
does not see, so after each set-up the runner measures units directly
(`measure`) for as long as the set-up took.
"""

from __future__ import annotations

import collections
import contextlib
import random
import signal
import typing
from time import process_time, thread_time

import reference

INTERVAL = 0.125  # CPU seconds between gauge units (a unit takes about 0.016 s)
SETUP_SHARE = 1.0  # after a set-up, gauge for as long as the set-up took
MIN_UNITS = 3
RECENT = 8  # a call that ran fewer units is scaled by the last RECENT units
REFERENCE_UNIT_S = 0.0156  # median seconds per unit, run back to back, on the README's host
STEP = 1800


def _layers():
    rnd = random.Random(0)
    return [
        [[0 if i == j else rnd.randrange(60, 1800) for j in range(8)] for i in range(8)]
        for _ in range(6)
    ]


LAYERS = _layers()
ANSWER = reference.exhaustive_optimum(LAYERS, STEP)

_spent = 0.0  # CPU seconds of every timer-driven unit so far
_units = 0
_recent = collections.deque(maxlen=RECENT)  # seconds of the last RECENT units


def _tick(signum, frame):
    # thread_time, not process_time: while a process-wide CPU timer is armed,
    # the kernel may serve process CPU time from a sum updated only at its
    # ticks, which read units of a few milliseconds as taking none
    global _spent, _units
    t0 = thread_time()
    reference.exhaustive_optimum(LAYERS, STEP)
    seconds = thread_time() - t0
    _spent += seconds
    _units += 1
    _recent.append(seconds)


class Reading(typing.NamedTuple):
    work: float  # CPU seconds of this process, less the timer-driven units
    units: int  # timer-driven units so far
    spent: float  # their CPU seconds
    recent: float  # seconds per unit over the last RECENT units, 0.0 before any

    def __sub__(self, start):
        """CPU seconds of the work from `start` to this reading, at the
        reference speed."""
        return (self.work - start.work) / factor(start, self)


def clock():
    """A reading of the work's CPU time and of the gauge. The difference of
    two readings is the work's CPU time between them, scaled."""
    while True:
        units = _units
        spent = _spent
        recent = sum(_recent) / len(_recent) if _recent else 0.0
        now = process_time()
        if units == _units:  # no unit ran in between
            return Reading(now - spent, units, spent, recent)


def factor(start, end):
    """Speed factor between two readings: seconds per unit over
    REFERENCE_UNIT_S, from the units run between them, or from the last
    RECENT units if fewer ran; 1.0 if no unit has run (the traced run)."""
    units = end.units - start.units
    if units >= RECENT:
        return (end.spent - start.spent) / units / REFERENCE_UNIT_S
    return end.recent / REFERENCE_UNIT_S if end.recent else 1.0


@contextlib.contextmanager
def interleaved():
    """Run a gauge unit every INTERVAL CPU seconds inside the block."""
    previous = signal.signal(signal.SIGPROF, _tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)


def measure(work_seconds):
    """Run units directly for SETUP_SHARE of `work_seconds` (at least
    MIN_UNITS) and return the speed factor."""
    units, t0 = 0, process_time()
    while units < MIN_UNITS or process_time() - t0 < SETUP_SHARE * work_seconds:
        if reference.exhaustive_optimum(LAYERS, STEP) != ANSWER:
            raise RuntimeError("gauge: the exhaustive search changed its answer")
        units += 1
    return (process_time() - t0) / units / REFERENCE_UNIT_S
