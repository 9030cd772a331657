"""Host speed, read around every timed op, and times scaled to it.

The benchmark was built on a 2-vCPU share of a cloud machine whose
speed other tenants move: six runs of one plan-even seed within a
quarter of an hour took from 0.46 s to 1.2 s per op, and over ten seeds raw op times spread
(quartile distance over median) by up to 0.58, more than any bound the
benchmark may fix.  So every end-to-end time is scaled to one reference
speed: an interval's wall time times :data:`REFERENCE_S` over the mean
time of a fixed kernel run just before and just after it.  The scaled
times of those same ten-seed runs spread at most 0.16.

The kernel is the benchmark's own code and never calls the program, so
a change to the program moves a scaled time exactly as it moves the
wall time.  Reports print the raw wall times too.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set

#: what the kernel takes at the reference speed: about its time on a
#: slow spell of that host.  It sets the scale only.
REFERENCE_S = 0.030


def kernel() -> str:
    """Greedy edge colouring of a fixed random multigraph: the dict, set,
    string and sort work the planner does, without calling it."""
    rng = random.Random(7)
    edges = [(f"d{rng.randrange(400)}", f"d{rng.randrange(400)}") for _ in range(4000)]
    degree: Counter = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    used: Dict[str, Set[int]] = {}
    colours: List[int] = []
    for u, v in sorted(edges, key=lambda e: (repr(e[0]), degree[e[1]])):
        a = used.setdefault(u, set())
        b = used.setdefault(v, set())
        c = 0
        while c in a or c in b:
            c += 1
        a.add(c)
        b.add(c)
        colours.append(c)
    return hashlib.sha256(repr(colours).encode()).hexdigest()


class Clock:
    """Scale factors to the reference speed, one per timed interval.

    The kernel runs once on each of ``cpus`` (the CPUs doing the measured
    work; None stands for the caller's own) and a read is their mean.
    """

    def __init__(self, cpus: Sequence[Optional[int]] = (None,)) -> None:
        self.cpus = tuple(cpus)
        #: the speed before the first interval: a median of three reads.
        self.last = sorted(self.read() for _ in range(3))[1]

    def read(self) -> float:
        """Mean wall time of one kernel run on each CPU."""
        saved = os.sched_getaffinity(0)
        total = 0.0
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, saved if cpu is None else {cpu})
                gc.collect()
                start = time.perf_counter()
                kernel()
                total += time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, saved)
        return total / len(self.cpus)

    def factor(self) -> float:
        """:data:`REFERENCE_S` over the kernel's mean time before and
        after the interval that just ended; the next interval starts."""
        after = self.read()
        scale = 2.0 * REFERENCE_S / (self.last + after)
        self.last = after
        return scale
