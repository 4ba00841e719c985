"""Batched planning engine: corpora of programs through the pipeline.

The paper plans one program at a time; production service means planning
many concurrently.  This subpackage provides:

* :func:`plan_many` — fan a corpus out over a process pool (with a
  deterministic serial fallback) and collect structured results;
* :class:`PlanRequest` / :class:`PlanResult` — the per-program unit of
  work and its diagnostics record (one program is ``plan_many([request],
  serial=True).results[0]``);
* :class:`BatchReport` — aggregate throughput, failures, per-pass
  pipeline timings, and the cache-hit counters of the memoized hot
  kernels (:mod:`repro.cachestats`).

The engine adds measurement and a pool; every task's plan comes from the
planning kernel (:mod:`repro.align.pipeline`).  The machine is named as
``(nprocs, topology)``, and options are turned into records and checked
once per call, before anything is planned.  One program on many
machines is the kernel's ``solve_prefix`` once, then
``solve_suffix(prefix.fork(), machine)`` per machine.

Quickstart::

    from repro.batch import plan_many
    from repro.lang.generate import generate_corpus

    report = plan_many(generate_corpus(100, seed=0), nprocs=16)
    print(report.render())
"""

from .engine import (
    BatchReport,
    PlanRequest,
    PlanResult,
    machine_label,
    plan_many,
)

__all__ = [
    "BatchReport",
    "PlanRequest",
    "PlanResult",
    "machine_label",
    "plan_many",
]
