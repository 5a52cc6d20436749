"""Machine-speed reference for the reported times.

The machine this benchmark runs on is shared, and its speed drifts by
tens of percent over minutes, for identical work and with CPU time equal
to wall time.  Between operations the benchmark runs a fixed piece of
its own code, never the library's, of the same kind as the library's
work: tree walks over dicts, Fraction arithmetic with growing
denominators, and sorting and hashing of tuples.  Reported times are
wall times scaled by ``NOMINAL_S`` over the mean time of that piece in
the same seconds of the run, that is, seconds on a machine on which the
piece takes ``NOMINAL_S``.  A change to the library cannot move the reference, so a
faster or slower program still shows in full.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import workloads

NOMINAL_S = 0.005


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self.tree = workloads.random_tree(rng, 300)
        ends = [e for e, _ in self.tree["ends"]]
        self.pairs = list(zip(ends[::2], ends[1::2]))[:60]
        self.rows = [(str(rng.random()), i, Fraction(i, 7)) for i in range(1200)]
        self.times = []

    def _work(self):
        rooted = workloads.Rooted(self.tree)
        for a, b in self.pairs:
            rooted.cost(a, b)
        workloads.closed_form_moments(workloads.SPINE_SPECS["geometric"], 70)
        total = Fraction(0)
        for i in range(1, 500):
            total += Fraction(1, i % 97 + 1)
        rows = sorted(self.rows, reverse=True)
        return {row[0]: row for row in rows}, total

    def sample(self) -> None:
        start = perf_counter()
        self._work()
        self.times.append(perf_counter() - start)

    def scale(self) -> float:
        """Factor turning wall seconds into nominal seconds, over the run."""
        return NOMINAL_S / statistics.fmean(self.times)

    def scale_at(self, index: int) -> float:
        """The factor for the ``index``-th timed step of a loop that took
        one sample before its first step and one after every step.

        It uses the median of the two samples around the step and one
        more on each side, because the machine's speed also changes
        within seconds and a single sample can be hit by a stall.
        """
        return NOMINAL_S / statistics.median(self.times[max(0, index - 1) : index + 3])

    def scaled(self, seconds: list) -> list:
        return [s * self.scale_at(i) for i, s in enumerate(seconds)]
