"""Faults: what the drivers do when the worker pool fails under them.

Batch and serve run one :class:`~repro.batch.engine.WorkerPool` with one
fault policy.  A fault of the pool — it cannot be spawned, it refuses a
submit, a worker dies — is recorded once and turns the pool off: what
finished in it is kept, only what it lost is planned inline, and so is
everything after.  The batch pool outlives a call, and the next batch
replaces a faulted one.  What a task raises is that task's.  A closed
service spawns nothing again.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.batch.engine as engine
from conftest import report_facts as _facts
from repro.batch import plan_many
from repro.batch.engine import WorkerPool
from repro.lang.generate import generate_corpus
from repro.obs import spans as obs
from repro.obs.metrics import registry
from repro.serve import PlanService, ServeRequest
from repro.serve.service import _cold

SRC = """
real A(64), B(64)
A(1:63) = A(1:63) + B(2:64)
"""

SRC2 = """
real C(32), D(32)
C(1:32) = C(1:32) + D(1:32)
"""

CORPUS = generate_corpus(12, seed=3)
SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _counter(name: str) -> int:
    return registry().counter(name).value


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


# -- the pool itself -----------------------------------------------------------


class TestWorkerPool:
    def test_maps_in_order_like_the_builtin_map(self):
        pool = WorkerPool(2)
        got = pool.map(pow, range(9), [2] * 9)
        pool.close()
        assert got == list(map(pow, range(9), [2] * 9))
        assert pool.fault is None

    def test_one_job_and_a_closed_pool_spawn_nothing(self, monkeypatch):
        spawned = []
        monkeypatch.setattr(
            engine, "ProcessPoolExecutor", lambda **kw: spawned.append(kw)
        )
        inline = WorkerPool(1)
        closed = WorkerPool(2)
        closed.close()
        for pool in (inline, closed):
            assert pool.map(abs, [-1, -2]) == [1, 2]
            assert pool.fault is None
        assert spawned == []

    def test_threads_mapping_at_once_record_one_fault(self, monkeypatch):
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _no_processes)
        faults = []
        pool = WorkerPool(2, on_fault=faults.append)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as threads:
                got = list(
                    threads.map(lambda i: pool.map(abs, [-i] * 3), range(64))
                )
        finally:
            sys.setswitchinterval(interval)
        assert got == [[i] * 3 for i in range(64)]
        assert [str(exc) for exc in faults] == ["no processes here"]
        assert pool.fault == "OSError: no processes here"

    def test_src_spawns_and_catches_a_broken_pool_in_one_place(self):
        counts = {"ProcessPoolExecutor(": 0, "except BrokenProcessPool": 0}
        for path in SRC_ROOT.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for token in counts:
                counts[token] += text.count(token)
        assert counts == {"ProcessPoolExecutor(": 1, "except BrokenProcessPool": 1}
        service = (SRC_ROOT / "serve" / "service.py").read_text(encoding="utf-8")
        for name in ("_pool_broken", "_worker_pool", "_thread_pool", "_closed"):
            assert not re.search(rf"\b{name}\b", service), name


# -- batch: a worker killed mid-run --------------------------------------------


@pytest.fixture
def killer(monkeypatch):
    """Kill the pool worker that reaches ``CORPUS[6]`` in
    ``solve_prefix``; count that call's runs in the parent (the inline
    re-runs).  A function patched before the pool forks stays patched
    in its workers: the batch pool outlives a call, so it is closed
    first and the next pooled call forks after the patch."""

    def patch() -> list:
        engine.close_batch_pool()
        real = engine.solve_prefix
        victim = CORPUS[6].name
        reruns = []

        def call(program, *args, **kw):
            if not _in_worker():
                reruns.append(program.name)
            elif program.name == victim:
                os._exit(1)
            return real(program, *args, **kw)

        monkeypatch.setattr(engine, "solve_prefix", call)
        return reruns

    return patch


def test_a_killed_worker_under_plan_many_replans_only_what_was_lost(killer):
    want = plan_many(CORPUS, nprocs=4, serial=True)
    reruns = killer()
    report = plan_many(CORPUS, nprocs=4, jobs=2)
    assert report.mode == "serial" and report.jobs == 1
    assert report.fallback_reason.startswith("BrokenProcessPool: ")
    assert _facts(report) == _facts(want)
    assert CORPUS[6].name in reruns
    assert 0 < len(reruns) < len(CORPUS)


def test_a_faulted_batch_pool_is_replaced_on_the_next_call(killer, monkeypatch):
    want = plan_many(CORPUS, nprocs=4, serial=True)
    killer()
    assert plan_many(CORPUS, nprocs=4, jobs=2).mode == "serial"
    monkeypatch.undo()  # the next pool forks without the killer
    report = plan_many(CORPUS, nprocs=4, jobs=2)
    assert (report.mode, report.jobs) == ("process", 2)
    assert report.fallback_reason is None
    assert _facts(report) == _facts(want)


# -- the pool cannot be spawned, or refuses a submit ---------------------------


class _RefusesSubmits(ProcessPoolExecutor):
    def submit(self, *args, **kw):
        raise RuntimeError("cannot schedule new futures after shutdown")


def _no_processes(**kw):
    raise OSError("no processes here")


FAULTS = {
    "spawn": (_no_processes, "OSError: no processes here"),
    "submit": (
        _RefusesSubmits,
        "RuntimeError: cannot schedule new futures after shutdown",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_batch_plans_inline_when_the_pool_faults_at_the_start(
    fault, monkeypatch
):
    pool, reason = FAULTS[fault]
    want = plan_many(CORPUS[:3], nprocs=4, serial=True)
    engine.close_batch_pool()  # the next pooled call spawns under the patch
    monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
    report = plan_many(CORPUS[:3], nprocs=4, jobs=2)
    assert (report.mode, report.jobs) == ("serial", 1)
    assert report.fallback_reason == reason
    assert _facts(report) == _facts(want)


@pytest.mark.parametrize("fault", FAULTS)
def test_a_service_counts_a_pool_fault_once(fault, monkeypatch):
    pool, reason = FAULTS[fault]
    monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
    before = _counter("serve.pool_fallbacks")
    with obs.recording() as rec, PlanService(jobs=2) as svc:
        replies = [
            svc.handle(ServeRequest(name, src, nprocs=4))
            for name, src in (("q", SRC), ("r", SRC2))
        ]
        assert svc.pool.fault == reason
    assert [(r.ok, r.cached) for r in replies] == [(True, None), (True, None)]
    assert _counter("serve.pool_fallbacks") - before == 1
    instants = [
        span.tags["error"]
        for root in rec.roots
        for span in root.walk()
        if span.name == "serve.pool_fallback"
    ]
    assert instants == [reason.split(":")[0]]


# -- serve: what a task raises vs a worker that dies ---------------------------


def _task_raises(program, options, machine):
    """A cold plan the planner fails in (``align/offset_static.py``) —
    on program ``q``; any other is planned."""
    if program.name == "q":
        raise RuntimeError("offset LP axis 0: infeasible")
    return _cold(program, options, machine)


def _task_dies(program, options, machine):
    """A cold plan whose pool worker is killed under it (inline — the
    fallback — it is planned)."""
    if _in_worker():
        os._exit(1)
    return _cold(program, options, machine)


class TestPoolFaults:
    """Only a fault of the pool switches it off; what a task raises is
    that request's error.  Each case: the pool's fault, counters, the
    reply and the single access-log record."""

    def _ask(self, tmp_path, monkeypatch, task):
        import repro.serve.service as service
        from repro.serve import read_access_log

        log = str(tmp_path / "access.jsonl")
        before = {
            name: _counter(name)
            for name in ("serve.errors", "serve.pool_fallbacks")
        }
        monkeypatch.setattr(service, "_cold", task)
        with PlanService(jobs=2, access_log=log) as svc:
            resp = svc.handle(ServeRequest("q", SRC, nprocs=4))
            moved = {name: _counter(name) - n for name, n in before.items()}
            (record,) = [
                r for r in read_access_log(log) if r["kind"] == "access"
            ]
            again = svc.handle(ServeRequest("r", SRC2, nprocs=4))
            return svc.pool.fault, moved, resp, record, again

    def test_a_task_that_raises_is_that_requests_error(self, tmp_path, monkeypatch):
        fault, moved, resp, record, again = self._ask(
            tmp_path, monkeypatch, _task_raises
        )
        assert fault is None
        assert moved == {"serve.errors": 1, "serve.pool_fallbacks": 0}
        assert resp.status == "error" and resp.plan is None
        assert resp.error == "RuntimeError: offset LP axis 0: infeasible"
        assert (record["status"], record["error"]) == ("error", resp.error)
        # The pool is still up, and still what plans the next cold miss.
        assert again.ok and again.cached is None

    def test_a_worker_that_dies_degrades_to_inline(self, tmp_path, monkeypatch):
        fault, moved, resp, record, again = self._ask(
            tmp_path, monkeypatch, _task_dies
        )
        assert fault.startswith("BrokenProcessPool: ")
        assert moved == {"serve.errors": 0, "serve.pool_fallbacks": 1}
        assert resp.ok and resp.cached is None
        with PlanService() as inline:
            want = inline.handle(ServeRequest("q", SRC, nprocs=4))
        assert pickle.dumps(resp.plan) == pickle.dumps(want.plan)
        assert (record["status"], record.get("error")) == ("ok", None)
        assert again.ok and again.cached is None  # planned inline from now on


# -- serve: a closed service ----------------------------------------------------


def test_a_closed_service_plans_inline_and_spawns_nothing():
    others = set(multiprocessing.active_children())
    svc = PlanService(jobs=2)
    assert svc.handle(ServeRequest("q", SRC, nprocs=4)).ok
    assert len(set(multiprocessing.active_children()) - others) == 2
    svc.close()
    reply = svc.handle(ServeRequest("r", SRC2, nprocs=4))
    assert reply.ok and reply.cached is None
    assert svc.pool.fault is None
    # ``close`` does not wait for the workers; they exit, and none is
    # spawned in their place.
    deadline = time.monotonic() + 10
    while set(multiprocessing.active_children()) - others:
        assert time.monotonic() < deadline, "a closed service has live workers"
        time.sleep(0.05)


def test_a_dropped_service_is_freed_with_its_cache_at_once():
    # The pool's fault hook must not point back at its service: a cycle
    # keeps a closed service and every plan it decoded alive until a
    # full collection.
    with PlanService(jobs=2) as svc:
        assert svc.handle(ServeRequest("q", SRC, nprocs=4)).ok
        ref = weakref.ref(svc)
    del svc
    assert ref() is None
