"""The speed probe: what the machine, not the program, is doing right now.

On the shared 2-vCPU reference box the same op reads up to twice as long
from one minute to the next (README, "Noise").  A fixed 1 ms loop run
just before and just after a timed call reads longer by the same share,
so every time the benchmark reports is divided by its neighbouring probe
readings.  Standard library only: ``run.py`` takes the first reading
before anything of ``repro`` is imported.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from . import stats

perf = time.perf_counter

#: Seconds one :func:`speed_probe` takes on the reference box at its usual
#: speed: the base every reference-speed time is expressed against.
PROBE_REF_S = 1.0e-3


def speed_probe() -> float:
    """Seconds a fixed loop of the planner's kind of work takes right now:
    dict and tuple traffic, ``Fraction`` arithmetic, a sort.  It shares no
    code with ``repro``, so only the machine's own speed can move it; a
    bare integer loop tracked the planner's slowdowns half as well."""
    t0 = perf()
    table: dict = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            acc += Fraction(i, 7)
    sorted(table.items())
    return perf() - t0


def probe_reading(runs: int) -> float:
    """Mean of ``runs`` probes after one discarded run: the first probe
    after a planner op finds its caches cold and reads 17 % longer, which
    would make a reading depend on how many runs it averages.  The mean,
    not the median: when the hypervisor takes the CPU away for 10-50 ms at
    a time, a long op contains those gaps and so must the reading it is
    divided by (README, "Noise")."""
    speed_probe()
    return statistics.fmean(speed_probe() for _ in range(runs))


def at_reference_speed(seconds: float, *readings: float) -> float:
    """``seconds`` as they would have read on a machine that runs the
    probe in :data:`PROBE_REF_S`, given the readings taken around them."""
    return seconds * PROBE_REF_S / stats.geomean(readings)


def ready_seconds(t_start: float, *earlier: float) -> float:
    """Seconds from ``t_start`` to now at reference speed: divided by the
    ``earlier`` readings taken on the way and one taken now."""
    elapsed = perf() - t_start
    return at_reference_speed(elapsed, *earlier, probe_reading(5))
