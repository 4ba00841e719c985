"""The planning service: admission → cache probe → plan → respond.

:class:`PlanService` is the in-process engine behind the
``python -m repro.serve`` daemon and the unit the tests drive directly.
One request is one program source plus a target machine; the response
is the planned distribution payload, annotated with how it was
produced:

* ``cached="plan"`` — answered entirely from the persistent plan cache
  (key: program, align-options and machine content fingerprints);
* ``cached="prefix"`` — the machine-independent pipeline prefix came
  from the cache and only the distribution suffix ran;
* ``cached="delta"`` — the exact probes missed, but the request named a
  ``base_fingerprint`` whose prefix is cached: the delta engine
  (:mod:`repro.passes.delta`) carried the base's unchanged alignment
  artifacts into an incremental re-plan, and only the invalidated
  suffix recomputed (counted as ``serve.hits.delta``, timed by
  ``serve.delta_ms``; a stale base ticks ``serve.delta_stale`` and
  degrades to cold);
* ``cached=None`` — a cold miss: the full pipeline ran, in the
  service's :class:`~repro.batch.engine.WorkerPool` (worker processes
  when ``jobs > 1``, inline otherwise), and both cache namespaces were
  populated for the next request.

The service plans nothing itself: the three planning outcomes are calls
to the planning kernel (:mod:`repro.align.pipeline`) — ``solve_prefix``
(with ``base=`` for a delta), then ``solve_suffix`` on a fork of the
prefix the cache keeps — and the payload is ``name``, ``machine`` and
the kernel's ``plan_facts``, built the same way on every path so a hit
is byte-identical (pickled) to the cold answer it was stored from.
Options are turned into records and checked once, at construction
(``planning_records``); a request's machine, ``(nprocs, topology)``
like every driver's, goes through that function's machine half
(``machine_record``), so a machine no other driver would plan for — a
processor count that is not an ``int >= 1`` among them — is
``status="error"`` here too, before any pass runs, and never reaches
the cache.

Admission applies bounded backpressure: past ``max_pending``
concurrently admitted requests the service answers
``status="rejected"`` with a ``retry_after`` hint instead of queueing
without bound.  Every stage is wrapped in :mod:`repro.obs` spans
(``serve.request`` → ``serve.admit`` / ``serve.cache`` / ``serve.plan``
/ ``serve.respond``) and feeds the typed metric registry
(``serve.requests``, ``serve.hits.plan``, ``serve.hits.prefix``,
``serve.misses``, ``serve.rejected``; latency histograms
``serve.warm_ms`` / ``serve.cold_ms`` and the unified ``serve.ms``).
Every metric is cumulative since the process started; the two fixed
SLO objectives (:func:`repro.obs.slo.serve_slo_report`) are reported
over that lifetime by :meth:`PlanService.stats`, and a reader that
wants a recent view subtracts two polls (:mod:`repro.obs.watch`).
``serve.inflight`` gauges the requests currently admitted.

The worker pool is the batch engine's, with its one fault policy: a
pool that cannot be spawned, refuses a submit or loses a worker turns
the service to inline planning for good, counted once in
``serve.pool_fallbacks``; a planning error inside a worker is that
request's error.  After :meth:`PlanService.close` cold misses plan
inline, and no process or thread pool is created again.

Deriving the cache key is most of a hit (parse the source, walk the
program for its fingerprint; build and fingerprint the machine), so the
service remembers it: a bounded **request-key memo** maps a digest of
``(name, source)`` to the program fingerprint that text parsed to
(``serve.key_memo.hits`` / ``serve.key_memo.misses``), and its machine
half maps ``(nprocs, topology)`` to the checked ``MachineSpec`` and its
fingerprint.  The machine half keeps only a machine ``machine_record``
accepted, and only for the exact types ``int``/``None`` and
``str``/``None`` (``4.0`` and ``True`` are refused, never answered
from the entry of ``4`` or ``1``); anything else is derived afresh on
every request.  A known request goes straight to the cache probes and
is parsed only where a pass needs the program — a delta or cold plan.  The memo stores no plan:
:class:`PlanCache` stays the only store of results, and a key the memo
forgot is derived again, to the same value.

When ``access_log`` is set, every request — served, errored, or
rejected — appends exactly one structured JSON line
(:class:`repro.serve.accesslog.AccessLog`): name, fingerprint chain,
cache outcome, latency, status, and (at a deterministic
``trace_sample`` rate) a per-span time breakdown of that request.

Cache-correctness discipline: payloads are keyed only by *content*
fingerprints.  If a planner input has none (a machine whose live
topology model is not a value, a program whose blocks nest too deep to
walk), the request is planned normally but never persisted — :class:`~repro.serve.cache.PlanCache` would refuse
a ``None`` key part — and the service counts it as
``serve.uncacheable``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .. import cachestats
from ..align.pipeline import (
    machine_record,
    plan_facts,
    planning_records,
    solve_prefix,
    solve_suffix,
)
from ..batch.engine import WorkerPool, check_jobs, machine_label
from ..lang.parser import parse
from ..obs import spans as obs
from ..obs.metrics import registry
from ..obs.slo import serve_slo_report
from ..passes import PlanContext, content_fingerprint
from .accesslog import AccessLog
from .cache import MISS, PlanCache

#: Default target machine when a request names neither nprocs nor topology.
DEFAULT_NPROCS = 4

#: The machine-field types the request-key memo remembers, exactly.
_NPROCS_TYPES = (int, type(None))
_TOPO_TYPES = (str, type(None))


@dataclass(frozen=True)
class ServeRequest:
    """One plan query: a named program source and a target machine.

    ``base_fingerprint`` opts into the incremental path: the program
    fingerprint of a previously planned request this one is an edit of.
    When the exact plan and prefix probes miss but the *base* prefix is
    still cached, the service compares the two programs' projections and
    re-plans incrementally (:func:`repro.passes.delta.replan`) instead of
    running the pipeline cold.  A stale or unknown base degrades to the
    cold path (counted under ``serve.delta_stale``) — never an error.
    """

    name: str
    source: str
    nprocs: Optional[int] = None
    topology: Optional[str] = None
    base_fingerprint: Optional[str] = None


@dataclass(frozen=True)
class ServeResponse:
    """The service's answer; ``status`` is ``ok``/``rejected``/``error``."""

    name: str
    status: str
    cached: Optional[str] = None  # "plan" | "prefix" | "delta" | None (cold)
    seconds: float = 0.0
    plan: Optional[Mapping[str, Any]] = None
    error: Optional[str] = None
    retry_after: Optional[float] = None
    #: The content-fingerprint chain the cache was probed with
    #: (program/options/machine; ``None`` for an input that has none).
    #: Exposed on the wire so an editing client can quote
    #: ``fingerprints["program"]`` back as the next request's
    #: ``base_fingerprint``.
    fingerprints: Optional[Mapping[str, Optional[str]]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "status": self.status,
            "cached": self.cached,
            "seconds": self.seconds,
        }
        if self.plan is not None:
            out["plan"] = dict(self.plan)
        if self.fingerprints is not None:
            out["fingerprints"] = dict(self.fingerprints)
        if self.error is not None:
            out["error"] = self.error
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        return out


def _trace_totals(rec, program: str) -> dict:
    """Collapse one request's recorded spans to per-name totals.

    The registry-backed recorder is process-global, so filter to the
    roots tagged with *this* request's program before summing — a
    concurrent untraced request contributes no spans (tracing is
    guarded by ``_trace_lock``), but a stale root from a prior sample
    must not leak into this record.
    """
    totals: dict[str, dict] = {}
    for root in rec.roots:
        if root.tags.get("program") not in (None, program):
            continue
        for span in root.walk():
            entry = totals.setdefault(span.name, {"count": 0, "ms": 0.0})
            entry["count"] += 1
            entry["ms"] += span.seconds * 1e3
    for entry in totals.values():
        entry["ms"] = round(entry["ms"], 4)
    return totals


def _text_digest(request: ServeRequest) -> bytes:
    """The request-key memo's key: a digest of ``(name, source)``.

    The name is in it because it is in the program fingerprint (one
    source under two names is two programs); its length prefix keeps
    ``("ab", "c")`` and ``("a", "bc")`` apart.  ``surrogatepass`` lets a
    lone surrogate from a JSON escape reach the parser's own error.
    """
    name = request.name.encode("utf-8", "surrogatepass")
    h = hashlib.sha256(len(name).to_bytes(8, "little"))
    h.update(name)
    h.update(request.source.encode("utf-8", "surrogatepass"))
    return h.digest()


def _answer(prefix, machine, name: str) -> dict:
    """The plan payload of ``prefix`` on ``machine``.

    The suffix runs on a fork (the prefix is what the cache keeps), and
    the payload is built here on every path — inline cold, pooled cold,
    prefix hit, delta — with deterministic field and alignment ordering:
    a cache-hit payload must be *byte-identical* (pickled) to the cold
    payload it was stored from.
    """
    return {
        "name": name,
        "machine": machine_label(machine.nprocs, machine.topology),
        **plan_facts(solve_suffix(prefix.fork(), machine)),
    }


def _cold(program, options, machine):
    """The cold path: ``(prefix context, payload)`` of one program.
    Module-level, so it pickles into the worker-process pool."""
    prefix = solve_prefix(program, options)
    return prefix, _answer(prefix, machine, program.name)


def _pool_fault(exc: Exception) -> None:
    """A service pool's one fault: the service plans inline from now on.
    Module-level, so the pool holds no reference back to its service (a
    closed service is freed with its cache as soon as it is dropped)."""
    registry().counter("serve.pool_fallbacks").inc()
    obs.instant("serve.pool_fallback", error=type(exc).__name__)


class PlanService:
    """In-process planning service with a persistent fingerprint cache.

    Thread-safe: the daemon drives :meth:`handle` from a thread pool;
    admission, cache, and metrics updates are internally locked.  A
    delta hit's ``serve.delta`` instant names the rung its replan took
    and, below ``carry_all``, the first element where the projections
    differed (``DeltaReport.fallback_detail``).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_entries: int = 1024,
        jobs: int = 1,
        max_pending: int = 64,
        retry_after: float = 0.05,
        align_kw: Mapping | None = None,
        default_nprocs: Optional[int] = None,
        default_topology: Optional[str] = None,
        access_log: Optional[AccessLog | str] = None,
        trace_sample: float = 0.0,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        # The hint goes out as a JSON number: NaN and infinity are not
        # JSON (RFC 8259), and a negative wait means nothing.
        if not (isinstance(retry_after, (int, float)) and 0 <= retry_after < math.inf):
            raise ValueError(
                f"retry_after must be a finite number >= 0, got {retry_after!r}"
            )
        self.jobs = check_jobs(jobs)
        # The one options check: a misplaced key, an unknown algorithm or
        # algorithm keyword, or an unplannable default machine fails
        # construction (before the cache is opened), not every request.
        self.options, _ = planning_records(default_nprocs, default_topology, align_kw)
        self.cache = PlanCache(cache_dir, max_entries=max_entries)
        self.max_pending = max_pending
        self.retry_after = retry_after
        # Service-wide machine defaults for requests naming neither
        # nprocs nor topology; per-request fields always win.
        self.default_nprocs = default_nprocs
        self.default_topology = default_topology
        if isinstance(access_log, str):
            access_log = AccessLog(access_log, trace_sample=trace_sample)
        self.access_log = access_log
        # The options are the service's own constant: fingerprint them
        # once, through the same ``put`` a request's context would use.
        self._options_fp = (
            PlanContext().put("align_options", self.options).fingerprint
        )
        self._lock = threading.Lock()
        # Request-key memo: digest of (name, source) -> content
        # fingerprint of the program that text parses to, LRU-bounded by
        # the cache's ``max_entries`` and guarded by ``_lock``.  It holds
        # no plan — a known text only skips re-deriving its cache key.
        self._key_memo: OrderedDict[bytes, str] = OrderedDict()
        # Its machine half: (nprocs, topology) -> (MachineSpec, machine
        # fingerprint), a pure function of the two fields since the
        # options are constant; bounded and locked the same way.
        self._machine_memo: OrderedDict[tuple, tuple] = OrderedDict()
        self._trace_lock = threading.Lock()
        self._pending = 0
        self.pool = WorkerPool(self.jobs, on_fault=_pool_fault)
        # Starts no thread before the first submit.
        self._threads = ThreadPoolExecutor(
            max_workers=max(2, self.jobs), thread_name_prefix="repro-serve"
        )

    # -- admission / backpressure ------------------------------------------

    def try_admit(self) -> bool:
        """Admit one request unless the high-water mark is reached.

        Callers that admit must :meth:`release` — the daemon does this
        around the executor dispatch so queue depth is bounded *before*
        work is enqueued, which is the whole point of backpressure.
        """
        with self._lock:
            if self._pending >= self.max_pending:
                registry().counter("serve.rejected").inc()
                return False
            self._pending += 1
        registry().gauge("serve.inflight").inc()
        return True

    def release(self) -> None:
        with self._lock:
            if self._pending == 0:
                return
            self._pending -= 1
        registry().gauge("serve.inflight").dec()

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def _rejected(self, request: ServeRequest) -> ServeResponse:
        response = ServeResponse(
            name=request.name,
            status="rejected",
            retry_after=self.retry_after,
        )
        self._log_access(response)
        return response

    # -- the request path --------------------------------------------------

    def handle(self, request: ServeRequest) -> ServeResponse:
        """Admission-checked synchronous entry point; never raises."""
        if not self.try_admit():
            return self._rejected(request)
        try:
            return self.handle_admitted(request)
        finally:
            self.release()

    def handle_admitted(self, request: ServeRequest) -> ServeResponse:
        """Post-admission entry: plan, then log exactly one access record.

        Trace sampling wraps the whole request in an
        :func:`repro.obs.spans.recording` at the access log's
        deterministic rate — one sampled request at a time, and never
        while an outer recording is active (a caller's trace must not
        be hijacked); a skipped sample is just an unsampled record.
        """
        log = self.access_log
        trace = None
        sampled = (
            log is not None
            and log.should_trace()
            and not obs.enabled()
            and self._trace_lock.acquire(blocking=False)
        )
        if sampled:
            try:
                with obs.recording(label=request.name) as rec:
                    response = self._handle_impl(request)
                trace = _trace_totals(rec, request.name)
            finally:
                self._trace_lock.release()
        else:
            response = self._handle_impl(request)
        self._log_access(response, trace)
        return response

    def _log_access(
        self, response: ServeResponse, trace: Optional[dict] = None
    ) -> None:
        if self.access_log is None:
            return
        self.access_log.access(
            name=response.name,
            status=response.status,
            cached=response.cached,
            ms=response.seconds * 1e3,
            fingerprints=response.fingerprints,
            error=response.error,
            trace=trace,
        )

    def _recall(self, memo: OrderedDict, key):
        """``memo[key]``, marked recently used, or ``None``."""
        with self._lock:
            value = memo.get(key)
            if value is not None:
                memo.move_to_end(key)
        return value

    def _remember(self, memo: OrderedDict, key, value) -> None:
        with self._lock:
            memo[key] = value
            memo.move_to_end(key)
            while len(memo) > self.cache.max_entries:
                memo.popitem(last=False)

    def _machine_key(self, nprocs, topology):
        """``(MachineSpec, its content fingerprint)`` for a request's
        machine fields; raises as :func:`machine_record` does.

        Remembered only for the exact types ``int``/``None`` and
        ``str``/``None``: a value-keyed dict would answer ``4.0`` and
        ``True``, which ``machine_record`` refuses, from the entries of
        ``4`` and ``1``, and a list is unhashable.
        """
        key = (nprocs, topology)
        exact = type(nprocs) in _NPROCS_TYPES and type(topology) in _TOPO_TYPES
        known = self._recall(self._machine_memo, key) if exact else None
        if known is None:
            machine = machine_record(nprocs, topology)
            known = machine, content_fingerprint(machine)
            if exact:
                self._remember(self._machine_memo, key, known)
        return known

    def _handle_impl(self, request: ServeRequest) -> ServeResponse:
        """The post-admission pipeline: cache probe → plan → respond."""
        reg = registry()
        reg.counter("serve.requests").inc()
        t0 = time.perf_counter()
        with obs.span("serve.request", program=request.name):
            try:
                with obs.span("serve.admit", kind="serve"):
                    nprocs, topology = request.nprocs, request.topology
                    if nprocs is None and topology is None:
                        nprocs = self.default_nprocs
                        topology = self.default_topology
                    if nprocs is None and topology is None:
                        nprocs = DEFAULT_NPROCS
                    # Fails fast on an unplannable machine (bad spec, no
                    # processor count, a size that contradicts nprocs)
                    # before any planning work.
                    machine, mfp = self._machine_key(nprocs, topology)
                    afp = self._options_fp
                    # A text seen before goes to the cache probes on its
                    # remembered fingerprint; it is parsed only where a
                    # pass needs the program (delta, cold).  Only content
                    # fingerprints are remembered: a parse error has none.
                    text = _text_digest(request)
                    program = None
                    pfp = self._recall(self._key_memo, text)
                    reg.counter(
                        "serve.key_memo.misses" if pfp is None
                        else "serve.key_memo.hits"
                    ).inc()
                    if pfp is None:
                        program = parse(request.source, name=request.name)
                        pfp = PlanContext().put("program", program).fingerprint
                        if pfp is not None:
                            self._remember(self._key_memo, text, pfp)

                fingerprints = {
                    "program": pfp,
                    "options": afp,
                    "machine": mfp,
                }
                cacheable = None not in (pfp, afp, mfp)
                if not cacheable:
                    reg.counter("serve.uncacheable").inc()

                cached: Optional[str] = None
                payload: Optional[dict] = None
                with obs.span("serve.cache", kind="serve"):
                    if cacheable:
                        hit = self.cache.get("plan", (pfp, afp, mfp))
                        if hit is not MISS:
                            cached, payload = "plan", hit

                if payload is None:
                    prefix = MISS
                    if cacheable:
                        prefix = self.cache.get("prefix", (pfp, afp))
                    # Near-miss probe: the exact prefix is absent but the
                    # request names a base program it was edited from.  A
                    # cached base prefix turns the cold plan into an
                    # incremental replan; a stale base is just a cold
                    # plan plus one counter tick.
                    base_ctx = MISS
                    if (
                        prefix is MISS
                        and cacheable
                        and request.base_fingerprint
                        and request.base_fingerprint != pfp
                    ):
                        base_ctx = self.cache.get(
                            "prefix", (request.base_fingerprint, afp)
                        )
                        if base_ctx is MISS:
                            reg.counter("serve.delta_stale").inc()
                    with obs.span("serve.plan", kind="serve"):
                        if prefix is not MISS:
                            cached = "prefix"
                            payload = _answer(prefix, machine, request.name)
                        else:
                            if program is None:
                                program = parse(request.source, name=request.name)
                            if base_ctx is not MISS:
                                cached = "delta"
                                prefix, payload = self._plan_delta(
                                    base_ctx, program, machine
                                )
                            else:
                                prefix, payload = self._plan_cold(program, machine)
                    if cacheable:
                        if cached is None or cached == "delta":
                            # The delta path solves a fresh prefix too —
                            # store it so the *next* edit can chain off
                            # this program's fingerprint.
                            self.cache.put("prefix", (pfp, afp), prefix)
                        self.cache.put("plan", (pfp, afp, mfp), payload)

                with obs.span("serve.respond", kind="serve"):
                    seconds = time.perf_counter() - t0
                    if cached == "plan":
                        reg.counter("serve.hits.plan").inc()
                        reg.histogram("serve.warm_ms").observe(seconds * 1e3)
                    elif cached == "delta":
                        reg.counter("serve.hits.delta").inc()
                        reg.histogram("serve.delta_ms").observe(seconds * 1e3)
                    else:
                        if cached == "prefix":
                            reg.counter("serve.hits.prefix").inc()
                        else:
                            reg.counter("serve.misses").inc()
                        reg.histogram("serve.cold_ms").observe(seconds * 1e3)
                    # The unified latency histogram every request lands
                    # in, warm or cold — the dashboard's headline p50/p99.
                    reg.histogram("serve.ms").observe(seconds * 1e3)
                    return ServeResponse(
                        name=request.name,
                        status="ok",
                        cached=cached,
                        seconds=seconds,
                        plan=payload,
                        fingerprints=fingerprints,
                    )
            except Exception as exc:  # noqa: BLE001 - responses, not crashes
                reg.counter("serve.errors").inc()
                return ServeResponse(
                    name=request.name,
                    status="error",
                    seconds=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _plan_delta(self, base_ctx, program, machine):
        """Incremental plan against a cached base prefix: the kernel
        compares ``program``'s projections with the base context's and
        carries the unchanged artifacts over
        (:func:`repro.passes.delta.replan`).  Returns ``(new prefix,
        payload)``."""
        prefix, report = solve_prefix(program, self.options, base=base_ctx)
        obs.instant(
            "serve.delta",
            strategy=report.strategy,
            fallback_detail=report.fallback_detail,
            reused=report.reused_entries,
        )
        return prefix, _answer(prefix, machine, program.name)

    def _plan_cold(self, program, machine):
        """Full-pipeline cold path, in the worker pool: ``(prefix,
        payload)``.  A planning error raised in a worker is this
        request's error; a fault of the pool plans it inline."""
        (answer,) = self.pool.map(_cold, [program], [self.options], [machine])
        return answer

    # -- async front -------------------------------------------------------

    async def handle_async(self, request: ServeRequest) -> ServeResponse:
        """Asyncio entry point: admission in the event loop (bounded
        *before* enqueueing), planning in the service's thread pool."""
        if not self.try_admit():
            return self._rejected(request)
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._threads, self.handle_admitted, request
            )
        finally:
            self.release()

    # -- introspection / lifecycle -----------------------------------------

    def stats(self) -> dict:
        """Service + cache counters, JSON-ready (the daemon's ``stats`` op)."""
        reg = registry()
        counters = {
            name: reg.counter(name).value
            for name in (
                "serve.requests",
                "serve.hits.plan",
                "serve.hits.prefix",
                "serve.hits.delta",
                "serve.delta_stale",
                "serve.misses",
                "serve.rejected",
                "serve.errors",
                "serve.uncacheable",
                "serve.pool_fallbacks",
            )
        }
        with self._lock:
            memo_entries = len(self._key_memo)
        reuse_h, reuse_m = cachestats.snapshot().get(
            "passes.artifact_reuse", (0, 0)
        )
        return {
            "pending": self.pending,
            "max_pending": self.max_pending,
            "jobs": self.jobs,
            "cache_dir": self.cache.root,
            "cache_entries": len(self.cache),
            "cache": self.cache.stats.as_dict(),
            # Process-wide like ``counters``; ``entries`` is this service's.
            "key_memo": {
                "entries": memo_entries,
                "hits": reg.counter("serve.key_memo.hits").value,
                "misses": reg.counter("serve.key_memo.misses").value,
            },
            "counters": counters,
            # Artifact-level reuse from the delta replans this process
            # ran (entries carried over vs recomputed), alongside the
            # request-level cache counters above.
            "artifact_reuse": {"reused": reuse_h, "recomputed": reuse_m},
            "inflight": reg.gauge("serve.inflight").value or 0,
            "latency": {
                "warm_ms": reg.histogram("serve.warm_ms").summary(),
                "cold_ms": reg.histogram("serve.cold_ms").summary(),
                "delta_ms": reg.histogram("serve.delta_ms").summary(),
            },
            "slo": serve_slo_report(reg.snapshot(include_cachestats=False)),
        }

    def close(self) -> None:
        """Shut both pools down, without waiting.  A closed service still
        answers :meth:`handle` (cold misses inline); :meth:`handle_async`
        needs the thread pool and raises ``RuntimeError``."""
        self.pool.close(wait=False)
        self._threads.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
