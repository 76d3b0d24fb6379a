"""Reference-slice calibration: wall time converted to reference-seconds.

The machines this benchmark runs on change speed by up to 2x within a
fraction of a second (a busy hyper-thread sibling or a neighbour on the host
slows every instruction; CPU time inflates exactly like wall time, so no
clock hides it).  A reference slice is a fixed piece of pure-Python work that
runs no repo code: a small self-adjusting-list walk driven by
``random.Random``, the same mix of list indexing, integer arithmetic, method
calls and dict updates as the program's serve loops.  Timing it around a unit
of program work tells how fast the machine ran at that moment, and

    reference time = wall time x NOMINAL_S / slice time

is the unit's time on a machine whose slice takes exactly ``NOMINAL_S``.

Slices run before and after every unit.  :meth:`Calibrator.unit` can also
sample the slice *during* the unit from a ``SIGALRM`` timer, because the
speed flips faster than a unit lasts; the handler's own time is subtracted
from the unit's wall time.  On a 2-vCPU KVM guest that cuts the spread of a
calibrated unit from about 11% (slices at the ends only) to about 3.5%.
Slices are timed in thread CPU time, so a slice preempted by the
benchmark's own worker processes does not read as a slow machine.  Work in
forked pool workers is sampled by :class:`ChildSampler`.  Windows whose
latency is measured must not sample in-unit: the slice holds the
interpreter lock while it runs and would show up as latency.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

__all__ = ["NOMINAL_S", "Calibrator", "ChildSampler", "UnitTiming", "reference_slice"]

#: Nominal duration of one reference slice, in reference-seconds.  About
#: what the slice takes on an unloaded 2020s x86 core, so reference-seconds
#: read close to seconds.
NOMINAL_S = 0.0005

#: Period of the in-unit sampling timer, in seconds.
SAMPLE_PERIOD_S = 0.01

_SLICE_NODES = 1023


class _Tally:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def add(self, value: int) -> None:
        self.total += value
        self.count += 1


def reference_slice() -> int:
    """Fixed pure-Python work shaped like a self-adjusting tree's serve loop."""
    rng = random.Random(7)
    element = list(range(_SLICE_NODES))
    where = list(range(_SLICE_NODES))
    tally = _Tally()
    seen = {}
    for _ in range(250):
        item = rng.randrange(_SLICE_NODES)
        node = where[item]
        tally.add((node + 1).bit_length())
        seen[item] = seen.get(item, 0) + 1
        steps = 0
        while node and steps < 4:
            parent = (node - 1) >> 1
            other = element[parent]
            element[parent], element[node] = item, other
            where[item], where[other] = parent, node
            node = parent
            steps += 1
    return tally.total + len(seen)


def time_slice() -> float:
    """CPU seconds of one reference slice on the calling thread.

    CPU time, not wall time: a slice preempted by another process would
    otherwise read as a slow machine.  Hardware slowdowns (a busy sibling
    thread, a lower clock) inflate CPU time exactly like wall time.
    """
    start = time.thread_time()
    reference_slice()
    return time.thread_time() - start


@dataclass
class UnitTiming:
    """One calibrated unit: raw wall seconds and the slices that scale it."""

    wall_s: float = 0.0
    slices: List[float] = field(default_factory=list)

    @property
    def slice_s(self) -> float:
        """Harmonic mean of the slices: the machine's mean speed, inverted.

        Work done is wall time times mean speed, and speed is the inverse of
        slice time, so the harmonic mean is the right average.
        """
        return statistics.harmonic_mean(self.slices)

    @property
    def factor(self) -> float:
        """Reference-seconds per wall second during this unit."""
        return NOMINAL_S / self.slice_s

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.factor


class Calibrator:
    """Times units of work in reference-seconds.

    ``between`` slices run before and after every unit; with ``sample=True``
    the unit is also sampled every :data:`SAMPLE_PERIOD_S` from a timer.
    Every slice of the run is kept so ``calib.ref_ms`` can report how fast
    the machine ran.
    """

    def __init__(self, between: int = 2) -> None:
        self.between = between
        self.all_slices: List[float] = []

    def slices(self, count: int) -> List[float]:
        measured = [time_slice() for _ in range(count)]
        self.all_slices.extend(measured)
        return measured

    def unit(self, sample: bool = False, children: Optional["ChildSampler"] = None) -> "_Unit":
        return _Unit(self, sample, children)

    @property
    def ref_ms(self) -> float:
        """Median slice time of the run, in milliseconds."""
        return statistics.median(self.all_slices) * 1e3


class _Unit:
    """Context manager behind :meth:`Calibrator.unit`."""

    def __init__(
        self, calibrator: Calibrator, sample: bool, children: Optional["ChildSampler"]
    ) -> None:
        self.calibrator = calibrator
        self.sample = sample
        self.children = children
        self.timing = UnitTiming()
        self._in_unit: List[float] = []
        self._previous: Optional[object] = None
        self._handler_s = 0.0
        self._start = 0.0
        self._start_epoch = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._in_unit.append(time_slice())
        self._handler_s += time.perf_counter() - start

    def __enter__(self) -> UnitTiming:
        self.timing.slices.extend(self.calibrator.slices(self.calibrator.between))
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._start = time.perf_counter()
        self._start_epoch = time.time()
        return self.timing

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        in_unit = self._in_unit
        if self.children is not None:
            in_unit = in_unit + self.children.collect(self._start_epoch, time.time())
        self.calibrator.all_slices.extend(in_unit)
        self.timing.wall_s = end - self._start - self._handler_s
        self.timing.slices.extend(in_unit)
        self.timing.slices.extend(self.calibrator.slices(self.calibrator.between))


class ChildSampler:
    """Samples the reference slice inside forked children (pool workers).

    Construct it before the pool forks: every child forked afterwards runs
    the slice every :data:`SAMPLE_PERIOD_S` of its own CPU time (``SIGPROF``,
    so an idle worker takes no samples) and appends ``epoch-time slice``
    lines to a file of its own under ``directory``.  :meth:`collect` returns
    the samples taken within a wall-clock window.  A pool campaign's speed
    is set by its workers as much as by this process, so a unit calibrated
    from this process's slices alone would miss half the machine.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        os.register_at_fork(after_in_child=self._start_in_child)

    def _start_in_child(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.directory / f"slices-{os.getpid()}.txt",
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        )

        def on_prof(_signum, _frame) -> None:
            os.write(fd, f"{time.time()!r} {time_slice()!r}\n".encode())

        signal.signal(signal.SIGPROF, on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def collect(self, start: float, end: float) -> List[float]:
        samples = []
        for path in self.directory.glob("slices-*.txt"):
            for line in path.read_text().splitlines():
                stamp, _, value = line.partition(" ")
                if value and start <= float(stamp) <= end:
                    samples.append(float(value))
        return samples
