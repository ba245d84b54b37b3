"""A speed probe that rescales wall time to a fixed reference speed.

On a shared host the speed of a virtual CPU changes by up to a factor of two
over seconds to minutes, as other tenants load the physical core under it.
The guest sees no steal time for this: the program simply runs slower, in
wall time and in CPU time alike.  So while a child runs, the benchmark
process wakes every `POLL_S`, moves to the CPU the child last ran on, and
times one `chunk()` of fixed exact-arithmetic work there.  The mean of
`REFERENCE_CHUNK_S / chunk time` over those samples is the speed the child
had, relative to the reference, and each timing of the child is multiplied
by it.

A reference second is therefore the time the child would have taken on a CPU
that runs `chunk()` in `REFERENCE_CHUNK_S`, about what this code's 2-core Xeon
host gives when uncontended.  The probe code lives here and never imports
`arr4`, so a change to the program under test cannot move the scale.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

#: seconds between probe samples while a child runs
POLL_S = 0.01
#: seconds one `chunk()` takes at the reference speed
REFERENCE_CHUNK_S = 300e-6


def chunk() -> int:
    """Fixed work in the style of the program: Fraction arithmetic and dict stores."""
    table = {}
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 2, i + 1) + 1
        table[(i, i * 7)] = x.numerator % 97
    return len(table)


def child_cpu(pid: int) -> int | None:
    """The CPU a process last ran on, from /proc/<pid>/stat, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[36])


class SpeedProbe:
    """Samples the speed of the CPU a child runs on, from the parent process."""

    def __init__(self):
        self.home = os.sched_getaffinity(0)
        self.cpu = None
        self.samples = []
        for _ in range(20):
            chunk()

    def start(self):
        self.samples = []

    def sample(self, pid: int | None = None):
        """Time one chunk, first moving to the CPU process `pid` last ran on."""
        cpu = None if pid is None else child_cpu(pid)
        if cpu is not None and cpu != self.cpu and cpu in self.home:
            os.sched_setaffinity(0, {cpu})
            self.cpu = cpu
        begin = time.perf_counter()
        chunk()
        self.samples.append(REFERENCE_CHUNK_S / (time.perf_counter() - begin))

    def speed(self) -> float | None:
        """Mean speed relative to the reference over the samples since `start`."""
        return statistics.fmean(self.samples) if self.samples else None

    def release(self):
        """Let the benchmark process run on every CPU it had again."""
        if self.cpu is not None:
            os.sched_setaffinity(0, self.home)
            self.cpu = None
