"""Batched planning: many programs through the pipeline, concurrently.

:func:`plan_many` takes a corpus of programs (source text,
:class:`~repro.lang.ast.Program` values, or
:class:`~repro.lang.generate.Scenario` records), plans each one with the
full alignment + distribution pipeline, and returns a
:class:`BatchReport` of structured :class:`PlanResult` records — cost,
alignments, chosen distribution, wall time, failure diagnostics, and
per-task cache-hit counters from :mod:`repro.cachestats`.

Execution is a fan-out over a :class:`WorkerPool`, the one process
pool of every driver (the planning service's cold misses use it too).
``jobs=1`` or ``serial=True`` plans inline; a fault of the pool (it
cannot be spawned, it refuses a submit, a worker dies) re-plans inline
only the tasks the pool lost, and the report says why.  Results are
identical and arrive in corpus order either way, because planning
itself is deterministic and the pool maps in order.

The engine plans nothing itself.  :func:`plan_many` turns its keywords
— the machine named as ``(nprocs, topology)`` — into the two frozen
option records once, up front
(:func:`repro.align.pipeline.planning_records` — a bad option or
machine fails the call, not every task), and each task asks the
planning kernel for its plan (``solve_prefix`` / ``solve_suffix`` /
``plan_facts``); what crosses the pool is source text and those
records.  What the engine adds is the measurement around a task
(:func:`_measured`: wall time, cache-counter deltas, per-pass seconds
off ``ctx.trace``, the span tree, failure → diagnostic) and the pool
(:class:`WorkerPool`, one for the process).  To plan one program for many
machines, solve its prefix once and run ``solve_suffix(prefix.fork(),
machine)`` per machine, or ask :mod:`repro.serve`, whose prefix cache
answers a new machine for a known program.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

from .. import cachestats
from ..align.pipeline import (
    plan_facts,
    planning_records,
    solve_prefix,
    solve_suffix,
)
from ..obs import spans as obs
from ..obs.metrics import latency_summary
from ..obs.recorder import TraceRecorder
from ..lang.ast import Program
from ..lang.generate import Scenario
from ..lang.parser import parse
from ..lang.pretty import pretty

Work = Union[str, Program, Scenario, "PlanRequest"]


@dataclass(frozen=True)
class PlanRequest:
    """One unit of batch work: a named program source."""

    name: str
    source: str

    @classmethod
    def of(cls, item: Work, index: int) -> "PlanRequest":
        if isinstance(item, PlanRequest):
            return item
        if isinstance(item, Scenario):
            return cls(item.name, item.source)
        if isinstance(item, Program):
            return cls(item.name, pretty(item))
        if isinstance(item, str):
            return cls(f"program_{index}", item)
        raise TypeError(f"cannot batch-plan {type(item).__name__}")


@dataclass(frozen=True)
class PlanResult:
    """Everything the engine decided about one program.

    ``total_cost`` is the paper's equation-1 realignment cost as an
    exact ``Fraction`` string; ``alignments`` maps each declared array
    to the rendered alignment of its source port; ``distribution`` is
    the HPF-style directive chosen by the planner (``None`` when the
    batch ran without distribution planning).  ``cache`` holds the
    cache-counter increments this task produced, and ``verified``
    records the outcome of the optional differential check.
    """

    name: str
    ok: bool
    seconds: float
    total_cost: Optional[str] = None
    alignments: Mapping[str, str] = field(default_factory=dict)
    distribution: Optional[str] = None
    dist_hops: Optional[int] = None
    dist_moved: Optional[int] = None
    dist_exact: Optional[bool] = None
    error: Optional[str] = None
    verified: Optional[bool] = None
    cache: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    # Wall seconds per executed pipeline pass for this task (reused
    # passes contribute nothing); the machine spec the task planned for.
    passes: Mapping[str, float] = field(default_factory=dict)
    machine: Optional[str] = None
    # The task's span tree when the batch ran with tracing (``trace=True``):
    # a picklable recorder shipped back across the process pool, merged by
    # :meth:`BatchReport.merged_trace`.
    trace: Optional[TraceRecorder] = None


def machine_label(nprocs: Optional[int], spec: Optional[str]) -> str:
    """The one-line machine tag used across batch and serve reports
    (``"torus:4x4/P16"``, ``"P8"``, ``"ring:8"``)."""
    if spec is not None and nprocs is not None:
        return f"{spec}/P{nprocs}"
    return spec if spec is not None else f"P{nprocs}"


def _verify(ctx) -> bool:
    """The differential cross-check, inline: analytic cost == simulator.

    Two oracles, both under the identity distribution but priced on the
    task's topology:

    * on the default (grid) machine, measured hops + broadcasts +
      general elements must equal the equation-1 cost exactly (general
      moves carry the discrete-metric charge, never hops);
    * for every topology, the compiled profile's pricing front — what
      the planner prices — must agree with the executor's counts
      exactly, general edges included.
    """
    from ..distrib.vectorized import evaluate_front
    from ..machine.distribution import Distribution
    from ..machine.executor import measure_traffic

    plan = ctx.get("plan")
    topo = ctx.get("machine").topology_object() if ctx.has("machine") else None
    ident = Distribution.identity(plan.adg.template_rank)
    rep = measure_traffic(plan.adg, plan.alignments, ident, topology=topo)
    if topo is None or topo.kind == "grid":
        total = rep.hop_cost + rep.broadcast_elements + rep.general_elements
        if plan.total_cost != total:
            return False
    if ctx.has("profile"):
        (priced,) = evaluate_front(ctx.get("profile"), [ident], topo).tolist()
        if priced != [rep.hop_cost, rep.elements_moved, rep.broadcast_elements]:
            return False
    return True


def _measured(payload: tuple) -> PlanResult:
    """Plan one program of :func:`plan_many` and report it (the pool's
    entry point).  A task never raises.

    The task parses its request and asks the kernel for the prefix, then
    — given a machine — the suffix on the same context.  What it reports
    beside the plan is taken here: cache-counter deltas, wall time, the
    ``plan:name`` span (in a recorder of its own when ``trace``), the
    simulator check, the executed passes' seconds off ``ctx.trace``
    (reuses contribute nothing), an exception as the ``error``
    diagnostic.
    """
    request, options, machine, verify, trace = payload
    name = request.name
    label = machine and machine_label(machine.nprocs, machine.topology)
    rec = TraceRecorder(label=name) if trace else None
    passes: dict = {}
    facts: dict = {}
    error = verified = None
    with obs.recording(into=rec) if trace else nullcontext():
        before = cachestats.snapshot()
        t0 = time.perf_counter()
        with obs.span(f"plan:{name}", program=name, machine=label):
            try:
                program = parse(request.source, name=name)
                ctx = solve_prefix(program, options, profile=machine is not None)
                if machine is not None:
                    ctx = solve_suffix(ctx, machine)
                facts = plan_facts(ctx)
                if verify:
                    with obs.span("batch.verify"):
                        verified = _verify(ctx)
                for ev in ctx.trace:
                    if ev["event"] == "run":
                        passes[ev["pass"]] = passes.get(ev["pass"], 0.0) + ev["seconds"]
            except Exception as exc:  # noqa: BLE001 - diagnostics, not control flow
                error = f"{type(exc).__name__}: {exc}"
        result = PlanResult(
            name=name,
            ok=error is None,
            seconds=time.perf_counter() - t0,
            total_cost=facts.get("total_cost"),
            alignments=facts.get("alignments", {}),
            distribution=facts.get("distribution"),
            dist_hops=facts.get("hops"),
            dist_moved=facts.get("moved"),
            dist_exact=facts.get("exact"),
            error=error,
            verified=verified,
            cache=cachestats.delta(before),
            passes=passes,
            machine=label,
            trace=rec,
        )
    return result


def _family(name: str) -> str:
    """The program family of a result name, for latency grouping.

    Generated scenarios are named ``family_seed``: strip a trailing
    numeric seed.  A name without one is its own family.
    """
    stem, _, tail = name.rpartition("_")
    return stem if stem and tail.isdigit() else name


@dataclass
class BatchReport:
    """Aggregate outcome of one :func:`plan_many` run."""

    results: list[PlanResult]
    seconds: float
    jobs: int
    mode: str  # "process" or "serial"
    # Why a requested process run degraded to serial (pool spawn failure,
    # broken pool mid-run, ...); None for a clean run.
    fallback_reason: Optional[str] = None
    # The machine spec every task was planned on (None: the default
    # L1 grid machine).
    topology: Optional[str] = None

    @property
    def ok(self) -> list[PlanResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> list[PlanResult]:
        return [r for r in self.results if not r.ok]

    @property
    def throughput(self) -> float:
        """Programs planned per wall-clock second."""
        return len(self.results) / self.seconds if self.seconds else 0.0

    def cache_totals(self) -> dict[str, tuple[int, int]]:
        totals: dict[str, tuple[int, int]] = {}
        for r in self.results:
            cachestats.merge(totals, r.cache)
        return totals

    def latency_summaries(self, unit: float = 1e3) -> dict[str, dict]:
        """Histogram-backed per-task latency (p50/p90/p99) per program
        family, plus an ``"*"`` row for the whole batch; milliseconds by
        default (``unit`` rescales seconds)."""
        groups: dict[str, list] = {"*": []}
        for r in self.results:
            groups["*"].append(r.seconds)
            groups.setdefault(_family(r.name), []).append(r.seconds)
        return latency_summary(groups, unit=unit)

    def merged_trace(self) -> Optional[TraceRecorder]:
        """All per-worker recorders folded into one multi-process trace
        with per-program attribution; None when the batch ran untraced."""
        recorders = [r.trace for r in self.results if r.trace is not None]
        if not recorders:
            return None
        merged = TraceRecorder.merged(recorders, label="batch")
        return merged

    def pass_totals(self) -> dict[str, tuple[int, float]]:
        """Per-pass ``(executions, wall seconds)`` across every task."""
        totals: dict[str, tuple[int, float]] = {}
        for r in self.results:
            for name, secs in r.passes.items():
                n, s = totals.get(name, (0, 0.0))
                totals[name] = (n + 1, s + secs)
        return totals

    def to_json(self) -> dict:
        return {
            "seconds": self.seconds,
            "jobs": self.jobs,
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "topology": self.topology,
            "programs": len(self.results),
            "ok": len(self.ok),
            "failed": len(self.failures),
            "throughput": self.throughput,
            "cache": {
                name: {"hits": h, "misses": m}
                for name, (h, m) in sorted(self.cache_totals().items())
            },
            "latency": self.latency_summaries(),
            "passes": {
                name: {"executions": n, "seconds": s}
                for name, (n, s) in sorted(self.pass_totals().items())
            },
            "results": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "seconds": r.seconds,
                    "total_cost": r.total_cost,
                    "distribution": r.distribution,
                    "dist_hops": r.dist_hops,
                    "dist_moved": r.dist_moved,
                    "dist_exact": r.dist_exact,
                    "verified": r.verified,
                    "error": r.error,
                    "machine": r.machine,
                    "passes": dict(r.passes),
                }
                for r in self.results
            ],
        }

    def render(self) -> str:
        machine = f", topology={self.topology}" if self.topology else ""
        lines = [
            f"batch: {len(self.results)} programs in {self.seconds:.2f}s "
            f"({self.throughput:.1f}/s, {self.mode}, jobs={self.jobs}"
            f"{machine}); "
            f"{len(self.ok)} ok, {len(self.failures)} failed",
        ]
        if self.fallback_reason:
            lines.append(
                f"  WARNING: process pool unavailable, fell back to "
                f"serial ({self.fallback_reason})"
            )
        totals = self.cache_totals()
        rates = cachestats.hit_rate(totals)
        for name, (h, m) in sorted(totals.items()):
            lines.append(
                f"  cache {name:22s} hits={h:8d} misses={m:8d} "
                f"rate={rates[name]:.1%}"
            )
        for fam, s in self.latency_summaries().items():
            if s.get("count"):
                lines.append(
                    f"  latency {fam:20s} n={s['count']:6d} "
                    f"p50={s['p50']:8.2f}ms p90={s['p90']:8.2f}ms "
                    f"p99={s['p99']:8.2f}ms max={s['max']:8.2f}ms"
                )
        for name, (n, s) in sorted(self.pass_totals().items()):
            lines.append(
                f"  pass  {name:22s} runs={n:8d} seconds={s:9.3f}"
            )
        for r in self.failures:
            lines.append(f"  FAILED {r.name}: {r.error}")
        unverified = [r for r in self.ok if r.verified is False]
        for r in unverified:
            lines.append(f"  UNVERIFIED {r.name}: model/simulator mismatch")
        return "\n".join(lines)


def _run_chunk(fn: Callable, chunk: list) -> list:
    """One chunk of :meth:`WorkerPool.map`, run in a worker (or inline)."""
    return [fn(*args) for args in chunk]


class WorkerPool:
    """The one process pool of every driver, and its one fault policy.

    :meth:`map` is the builtin ``map`` made eager, in order, over ``jobs``
    worker processes (spawned on the first map; none with ``jobs <= 1``)
    in chunks of ``max(1, n // (4 * jobs))`` tasks.  A fault of the pool
    — it cannot be spawned, it refuses a submit, a worker dies — is
    recorded once in ``fault`` (``"Type: message"``) and passed to
    ``on_fault``: what the pool finished is kept, the chunks it lost run
    inline, and so does every later map.  What a task raises is that
    task's, as in the builtin ``map``, and the pool stays up.  A closed
    pool never spawns again.  Thread-safe: the service maps from many
    threads at once.
    """

    def __init__(self, jobs: int, on_fault: Optional[Callable] = None) -> None:
        self.jobs = jobs
        self.fault: Optional[str] = None
        self._on_fault = on_fault
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def map(self, fn: Callable, *iterables) -> list:
        tasks = list(zip(*iterables))
        size = max(1, len(tasks) // (4 * self.jobs))
        chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
        results: list = []
        for chunk, future in zip(chunks, self._submit(fn, chunks)):
            if future is not None:
                try:
                    results.extend(future.result())
                    continue
                except BrokenProcessPool as exc:
                    self._faulted(exc)
            results.extend(_run_chunk(fn, chunk))
        return results

    def _submit(self, fn: Callable, chunks: list) -> list:
        """One future per chunk, ``None`` where the pool takes none."""
        futures: list = [None] * len(chunks)
        with self._lock:
            if self.jobs <= 1 or self.fault is not None or self._closed:
                return futures
            try:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(max_workers=self.jobs)
                for i, chunk in enumerate(chunks):
                    futures[i] = self._executor.submit(_run_chunk, fn, chunk)
                return futures
            except (OSError, ValueError, RuntimeError) as exc:
                fault = exc
        self._faulted(fault)
        return futures

    def _faulted(self, exc: Exception) -> None:
        with self._lock:
            first = self.fault is None
            if first:
                self.fault = f"{type(exc).__name__}: {exc}"
        if first and self._on_fault is not None:
            self._on_fault(exc)

    def close(self, wait: bool = True) -> None:
        """Shut the executor down (joining its workers with ``wait``);
        every later map runs inline."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)


# The batch pool, kept for the process; pooled calls take turns on it.
_pool: Optional[WorkerPool] = None
_pool_lock = threading.Lock()


def _pooled(payloads: list, jobs: int) -> tuple[list, Optional[str]]:
    """The results and fault of the batch pool's map over ``payloads``."""
    global _pool
    with _pool_lock:
        if _pool is None or (_pool.jobs, _pool.fault) != (jobs, None):
            if _pool is not None:
                _pool.close()
            _pool = WorkerPool(jobs)
        return _pool.map(_measured, payloads), _pool.fault


@atexit.register
def close_batch_pool() -> None:
    """Close the batch pool and join its workers (the ``atexit`` hook)."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.close()
        _pool = None


def check_jobs(jobs: object) -> int:
    """``jobs`` if it is a worker count, an ``int >= 1``; else the
    ``ValueError`` both drivers raise before they plan or spawn."""
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs={jobs!r} is not a worker count: give an int >= 1")
    return jobs


def plan_many(
    corpus: Iterable[Work],
    nprocs: int | None = 4,
    jobs: int | None = None,
    serial: bool = False,
    align_kw: Mapping | None = None,
    verify: bool = False,
    topology: str | None = None,
    trace: bool = False,
) -> BatchReport:
    """Plan every program in ``corpus``; results in corpus order.

    ``jobs`` (an ``int >= 1``) defaults to the machine's CPU count and is
    capped at the corpus size.  ``serial=True`` (or ``jobs=1``) runs the
    same work inline; other calls share the process's batch pool (one
    ``jobs`` at a time, replaced after a fault).  A fault re-plans inline
    only what the pool lost (:class:`WorkerPool`), so ``plan_many`` works
    in restricted environments; a faulted run is reported as serial,
    with the pool's fault as the reason.  ``topology`` is a machine spec
    string applied to every task.  Options, machine and ``jobs`` are
    checked here, once: a bad worker or processor count, topology,
    algorithm name or algorithm keyword raises before anything is
    planned.  ``trace=True`` records every task's span tree in its
    worker and ships the recorders back for
    :meth:`BatchReport.merged_trace`.
    """
    jobs = check_jobs(jobs) if jobs is not None else (os.cpu_count() or 1)
    options, machine = planning_records(nprocs, topology, align_kw)
    payloads = [
        (PlanRequest.of(item, i), options, machine, verify, trace)
        for i, item in enumerate(corpus)
    ]
    jobs = 1 if serial else min(jobs, len(payloads) or 1)
    t0 = time.perf_counter()
    if jobs == 1:
        results, fault = list(map(_measured, payloads)), None
    else:
        results, fault = _pooled(payloads, jobs)
    if jobs == 1 or fault is not None:
        jobs, mode = 1, "serial"
    else:
        mode = "process"
    return BatchReport(
        results,
        time.perf_counter() - t0,
        jobs,
        mode,
        fallback_reason=fault,
        topology=topology,
    )
