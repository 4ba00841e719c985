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

The engine plans nothing itself.  Each entry point turns its keywords
— the machine named as ``(nprocs, topology)`` — into the two frozen
option records once, up front
(:func:`repro.align.pipeline.planning_records` — a bad option or
machine fails the call, not every task), and each task asks the
planning kernel for its plan (``solve_prefix`` / ``solve_suffix`` /
``plan_facts``); what crosses the pool is source text and those
records.  What the engine adds is the measurement around a task
(:func:`_measured`: wall time, cache-counter deltas, per-pass seconds
off ``ctx.trace``, the span tree, failure → diagnostic) and the pool
(:class:`WorkerPool`, one per call, run by :func:`_run_pool`).
:func:`plan_sweep` plans one corpus against *many* machines in two
stages on one pool: stage one solves each program's
machine-independent prefix (a :class:`~repro.passes.PlanContext`, which
pickles), stage two ships those prefixes back across the pool and runs
only the suffix, on a fork, per (program, machine) pair.
"""

from __future__ import annotations

import dataclasses
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
    machine_record,
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


def _label(machine) -> Optional[str]:
    """:func:`machine_label` of a ``MachineSpec`` (``None``: no machine)."""
    return machine and machine_label(machine.nprocs, machine.topology)


def _verify(ctx) -> bool:
    """The differential cross-check, inline: analytic cost == simulator.

    Two oracles, both under the identity distribution but priced on the
    task's topology:

    * on the default (grid) machine, measured hops + broadcasts +
      general elements must equal the equation-1 cost exactly (general
      moves carry the discrete-metric charge, never hops);
    * for every topology, the compiled profile must agree with the
      executor's counts exactly — general edges included.
    """
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
        cv = ctx.get("profile").evaluate(ident, topo)
        if (
            cv.hops != rep.hop_cost
            or cv.moved != rep.elements_moved
            or cv.broadcast != rep.broadcast_elements
        ):
            return False
    return True


def _measured(
    name: str,
    label: Optional[str],
    trace: bool,
    body: Callable,
    verify: bool = False,
    prefix: Optional[PlanResult] = None,
    kind: str = "plan",
) -> tuple[PlanResult, object]:
    """Run ``body()``, which returns a solved context, as one task:
    ``(its PlanResult, the context or None)``.  A task never raises.

    What a task reports beside the plan is taken here, the same way for
    every entry point: cache-counter deltas, wall time, the ``kind:name``
    span (in a recorder of its own when ``trace``), the simulator check,
    the executed passes' seconds off ``ctx.trace`` (reuses contribute
    nothing), an exception as the ``error`` diagnostic.  ``prefix`` is
    the measured sweep stage 1 the context was forked from: its pass
    seconds and span tree are charged to this result, success or failure.
    """
    rec = None
    if trace:
        rec = TraceRecorder(label=name)
        if prefix is not None and prefix.trace is not None:
            rec.merge(prefix.trace, program=name)
    passes = dict(prefix.passes) if prefix is not None else {}
    facts: dict = {}
    ctx = error = verified = None
    with obs.recording(into=rec) if trace else nullcontext():
        before = cachestats.snapshot()
        t0 = time.perf_counter()
        with obs.span(f"{kind}:{name}", program=name, machine=label):
            try:
                ctx = body()
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
    return result, ctx


def _solve(request: PlanRequest, options, machine):
    """Parse one request and plan it: the prefix, then — given a machine
    — the suffix on the same context (nothing keeps the prefix)."""
    program = parse(request.source, name=request.name)
    ctx = solve_prefix(program, options, profile=machine is not None)
    return ctx if machine is None else solve_suffix(ctx, machine)


def _plan_task(payload: tuple) -> PlanResult:
    """One program of :func:`plan_many` (the pool's entry point)."""
    request, options, machine, verify, trace = payload
    return _measured(
        request.name,
        _label(machine),
        trace,
        lambda: _solve(request, options, machine),
        verify,
    )[0]


def _family(name: str) -> str:
    """The program family of a result name, for latency grouping.

    Generated scenarios are named ``family_seed`` and sweep results
    ``name@machine``; strip the machine suffix, then a trailing numeric
    seed.  A name with neither is its own family.
    """
    base = name.split("@", 1)[0]
    stem, _, tail = base.rpartition("_")
    return stem if stem and tail.isdigit() else base


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

    def cache_hit_rates(self) -> dict[str, float]:
        return cachestats.hit_rate(self.cache_totals())

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

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _run_pool(
    work: Callable,
    tasks: int,
    jobs: Optional[int],
    serial: bool,
    topology: Optional[str] = None,
) -> BatchReport:
    """The report of ``work(pool)`` run on a fresh :class:`WorkerPool`.

    ``work`` maps its tasks on the pool and returns the results; it may
    map twice — a sweep's stages share one pool.  The pool has ``jobs``
    workers (default: the CPU count, capped at ``tasks``), one with
    ``serial``, and is closed — its workers joined — before the report is
    made.  A faulted run is reported as serial, with the pool's fault as
    the reason.
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = 1 if serial else max(1, min(jobs, tasks or 1))
    t0 = time.perf_counter()
    with WorkerPool(jobs) as pool:
        results = work(pool)
    if jobs == 1 or pool.fault is not None:
        jobs, mode = 1, "serial"
    else:
        mode = "process"
    return BatchReport(
        results,
        time.perf_counter() - t0,
        jobs,
        mode,
        fallback_reason=pool.fault,
        topology=topology,
    )


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

    ``jobs`` defaults to the machine's CPU count.  ``serial=True`` (or
    ``jobs=1``) runs the same work inline, and a fault of the pool
    re-plans inline only what the pool lost (:class:`WorkerPool`), so
    ``plan_many`` works in restricted environments.  ``topology`` is a
    machine spec string applied to every task.  Options and machine are checked here,
    once: a bad processor count or topology, an algorithm name or one of
    its keywords raises before anything is planned.  ``trace=True``
    records every task's span tree in its worker and ships the recorders
    back for :meth:`BatchReport.merged_trace`.
    """
    options, machine = planning_records(nprocs, topology, align_kw)
    payloads = [
        (PlanRequest.of(item, i), options, machine, verify, trace)
        for i, item in enumerate(corpus)
    ]
    return _run_pool(
        lambda pool: pool.map(_plan_task, payloads),
        len(payloads),
        jobs,
        serial,
        topology=topology,
    )


# -- machine sweeps: prefix contexts shipped across the pool ------------------

# One target machine: an nprocs count, a topology spec string, or both.
Machine = Union[int, str, tuple]


def _normalize_machine(m: Machine) -> tuple[Optional[int], Optional[str]]:
    if isinstance(m, int):  # a bool too: machine_record refuses it
        return (m, None)
    if isinstance(m, str):
        return (None, m)
    if isinstance(m, tuple) and len(m) == 2:
        return m
    raise TypeError(
        f"machine {m!r} is neither an nprocs int, a topology spec string, "
        "nor an (nprocs, spec) pair"
    )


def _prefix_task(payload: tuple):
    """Sweep stage 1: one program's machine-independent prefix, measured.
    The solved context goes back across the pool beside the result
    (``None`` beside a failure)."""
    request, options, trace = payload
    return _measured(
        request.name,
        None,
        trace,
        lambda: solve_prefix(parse(request.source, name=request.name), options),
        kind="prefix",
    )


def _sweep_task(payload: tuple) -> list[PlanResult]:
    """Sweep stage 2: the suffix on a fork of a shipped prefix, once per
    machine of the chunk.

    Machines arrive *chunked* so the (heavy) context crosses the pool
    once per chunk, not once per machine — the suffix itself is about a
    millisecond of pricing, so serialization would otherwise dominate.
    The context carries its profile's compiled pricing front, so no
    machine of the chunk compiles one.
    ``prefix`` is the measured stage 1 on a program's first chunk and
    ``None`` on the others: the chunk's first result is charged with it.
    """
    name, prefix, ctx, chunk, verify, trace = payload
    results = []
    for machine in chunk:
        label = _label(machine)
        result, _ = _measured(
            f"{name}@{label}",
            label,
            trace,
            lambda: solve_suffix(ctx.fork(), machine),
            verify,
            prefix,
        )
        results.append(result)
        prefix = None
    return results


def plan_sweep(
    corpus: Iterable[Work],
    machines: Iterable[Machine],
    jobs: int | None = None,
    serial: bool = False,
    align_kw: Mapping | None = None,
    verify: bool = False,
    trace: bool = False,
) -> BatchReport:
    """Plan every program against every machine, reusing aligned prefixes.

    Two stages on one pool.  Stage one aligns and profiles each program
    once — the machine-independent prefix — and ships the resulting
    :class:`~repro.passes.PlanContext` back across the pool (possible
    because every artifact is keyed by stable port uids, not object
    identity).  Stage two fans each prefix out over the machine list;
    every (program, machine) task forks the shipped context and runs
    only the distribution suffix.  Results are program-major, machine
    order preserved, named ``program@machine``.  Options and machines are
    checked here, once: a bad machine or alignment option raises before
    anything is planned.
    """
    requests = [PlanRequest.of(item, i) for i, item in enumerate(corpus)]
    options, _ = planning_records(align_kw=align_kw)
    specs = [machine_record(*_normalize_machine(m)) for m in machines]
    if not specs:
        raise ValueError("plan_sweep needs at least one machine")

    def work(pool):
        # One chunk per program when programs alone fill the pool; more
        # (down to per-machine) when they don't — chunking bounds how
        # often each heavy context is re-pickled across the pool while
        # keeping every worker busy.
        n = max(1, min(len(specs), pool.jobs // max(1, len(requests))))
        size = -(-len(specs) // n)  # ceil
        chunks = [specs[i : i + size] for i in range(0, len(specs), size)]
        prefixes = pool.map(_prefix_task, [(req, options, trace) for req in requests])
        solved = iter(
            pool.map(
                _sweep_task,
                [
                    (p.name, p if i == 0 else None, ctx, chunk, verify, trace)
                    for p, ctx in prefixes
                    if p.ok
                    for i, chunk in enumerate(chunks)
                ],
            )
        )
        results: list[PlanResult] = []
        for p, _ in prefixes:
            if p.ok:
                for _ in chunks:
                    results.extend(next(solved))
            else:  # the prefix's failure, once per machine it was meant for
                results.extend(
                    dataclasses.replace(
                        p,
                        name=f"{p.name}@{_label(m)}",
                        machine=_label(m),
                        seconds=0.0,
                        cache={},
                        trace=None,
                    )
                    for m in specs
                )
        return results

    return _run_pool(work, len(requests) * len(specs), jobs, serial)
