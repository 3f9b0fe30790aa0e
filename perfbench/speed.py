"""Machine speed, sampled with two fixed references between tasks.

On a shared virtual machine the speed a process gets can change by 30 to
60% for seconds to minutes at a time (other tenants, frequency limits), at
full CPU use, so two runs of the same code can differ by that much.  Two
references, neither of which touches qduality, sample that speed:

- LOOP: a fixed piece of pure-Python integer, complex and dict-of-tuples
  work, run in the worker itself.  It tracks tasks that run in the worker.
- IMPORT: a fresh interpreter that imports numpy.  Process start, dynamic
  loading and first-touch page faults drift apart from CPU speed, so this
  one tracks set-up and the CLI commands, which are mostly that.

A Timeline takes samples between tasks and scales each task's latency by
the reference's nominal time / (the mean of the samples taken just before
and just after it).  Timing metrics are therefore the times the program
would show on a machine on which the references take their nominal times.
The unscaled figures are kept in the run's details.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from typing import Callable, NamedTuple

REPEATS = 3  # a LOOP sample is the fastest of this many loops


def reference_loop() -> float:
    """Integer, complex and dict-of-tuples work, 1 to 2 ms; the garbage collector is off."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    t0 = clock()
    total = 0
    for i in range(5000):
        total += i * i
    z = 1.0 + 1.0j
    for _ in range(4000):
        z = z * (0.999 + 0.001j) + 0.001
    table = {}
    for i in range(1500):
        key = (i & 7, i & 15, i >> 4)
        table[key] = table.get(key, 0.0) + 0.5 * i
    sorted(table.values())
    elapsed = clock() - t0
    if enabled:
        gc.enable()
    return elapsed


def loop_sample() -> float:
    """The reference loop's time now: the fastest of REPEATS loops."""
    return min(reference_loop() for _ in range(REPEATS))


def import_sample() -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class Reference(NamedTuple):
    sample: Callable[[], float]
    nominal_s: float  # scaled times are times on a machine where a sample takes this
    every_s: float    # least time between two samples


LOOP = Reference(loop_sample, 0.0015, 0.25)
IMPORT = Reference(import_sample, 0.2, 0.0)


class Timeline:
    """Samples of one reference taken between tasks, each marked with the number of tasks done."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.marks = []  # (tasks done, sample seconds)
        self.spent_s = 0.0
        self._last = None

    def probe(self, done: int, force: bool = False) -> None:
        clock = time.perf_counter
        t0 = clock()
        if force or self._last is None or t0 - self._last >= self.reference.every_s:
            self.marks.append((done, self.reference.sample()))
            self._last = clock()
            self.spent_s += self._last - t0

    def factors(self, n: int) -> list:
        """Nominal time / the mean of the samples around each of the first n tasks."""
        out = []
        k = 0
        for i in range(n):
            while k + 1 < len(self.marks) and self.marks[k + 1][0] <= i:
                k += 1
            after = self.marks[k + 1][1] if k + 1 < len(self.marks) else self.marks[k][1]
            out.append(self.reference.nominal_s / ((self.marks[k][1] + after) / 2.0))
        return out
