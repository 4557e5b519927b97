"""Wall times scaled to a reference speed of the machine.

The benchmark runs on a few cores of a shared host. Other tenants' load
slows every instruction, by up to half, in phases that last from seconds
to minutes, so raw wall times of the same code drift from run to run far
more than any change worth measuring. A fixed pure-Python loop, timed
right before and right after the operations, measures how fast the
machine is at that moment. An operation's wall time times
``REF_NS / (the loop's time around it)`` is its time at the reference
speed: the speed at which the loop takes ``REF_NS``, about its time on an
idle core of the machine the baseline was taken on. One probe is the
median of ``PROBE_REPEATS`` timings of the loop: a single timing is often
inflated by an interrupt, and then says little about the seconds of work
around it.

The loop is the benchmark's own code and never calls normcolour, so a
change to the program moves the scaled times and not the reference.
"""
from __future__ import annotations

from time import perf_counter_ns

REF_NS = 500_000
LOOP_STEPS = 2400
PROBE_REPEATS = 5
PROBE_EVERY_NS = 25_000_000


def reference_loop(steps: int = LOOP_STEPS) -> int:
    """Dict, set and integer work, like the program's inner loops."""
    seen: set[int] = set()
    table: dict[int, int] = {}
    acc = 0
    for i in range(steps):
        k = i * 7919 % 1021
        table[k] = table.get(k, 0) + i
        if k in seen:
            acc += 1
        else:
            seen.add(k)
    return acc + len(table)


def scaled_ns(raw_ns: float, before_ns: float, after_ns: float) -> float:
    """``raw_ns`` at the reference speed, given the loop's time before and after."""
    return raw_ns * REF_NS * 2 / (before_ns + after_ns)


class SpeedProbe:
    """Times the reference loop between operations and keeps every probe."""

    def __init__(self, every_ns: int = PROBE_EVERY_NS) -> None:
        self.every_ns = every_ns
        self.samples: list[int] = []
        self._last_end = 0

    def probe(self) -> int:
        """Time the loop ``PROBE_REPEATS`` times, keep the median and
        return the probe's index."""
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter_ns()
            reference_loop()
            self._last_end = perf_counter_ns()
            times.append(self._last_end - start)
        self.samples.append(sorted(times)[PROBE_REPEATS // 2])
        return len(self.samples) - 1

    def due(self) -> int:
        """Index of the latest probe, probing first if ``every_ns`` has gone
        since it ended. An operation timed next gets the probe after it
        from the next ``due`` or ``probe``."""
        if not self.samples or perf_counter_ns() - self._last_end >= self.every_ns:
            return self.probe()
        return len(self.samples) - 1

    def scale(self, raw_ns: float, before: int) -> float:
        """Scale a time that began after probe ``before`` and ended before
        the probe that follows it."""
        return scaled_ns(raw_ns, self.samples[before], self.samples[before + 1])
