"""The batched planning engine, and the memoization-hygiene audit.

Covers :mod:`repro.batch` (ordering, serial/process determinism,
failure diagnostics, cache counters, report rendering, the batch pool
kept across calls) and the cache
rules the engine relies on: no ``lru_cache`` on bound methods anywhere
in the package (they pin ``self`` forever), bounded module-level
caches, and no growth of memory-resident plan objects across repeated
batch runs.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import multiprocessing
import os
import pkgutil
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from conftest import (
    CHAIN_SOURCE,
    DEEP_DO_SOURCE,
    DEEP_IF_SOURCE,
    DEEP_SOURCE,
    nested_blocks,
    report_facts,
)
import repro.batch.engine as engine
from repro import cachestats
from repro.obs import spans as obs
from repro.batch import BatchReport, PlanRequest, plan_many
from repro.lang.generate import GeneratorConfig, generate_corpus, generate_scenario


SRC = Path(__file__).resolve().parents[1] / "src"


def cache_sizes() -> dict[str, int]:
    """The entry count of every registered memo table, by name."""
    return {cache.name: len(cache) for cache in cachestats._CACHES}


class TestGenerate:
    def test_corpus_is_deterministic_and_prefix_stable(self):
        a = generate_corpus(10, seed=5)
        b = generate_corpus(10, seed=5)
        assert [s.source for s in a] == [s.source for s in b]
        # Growing the corpus keeps the prefix.
        c = generate_corpus(20, seed=5)
        assert [s.source for s in c[:10]] == [s.source for s in a]

    def test_families_cycle(self):
        corpus = generate_corpus(14, seed=0)
        assert len({s.family for s in corpus}) == 7

    def test_family_restriction(self):
        cfg = GeneratorConfig(families=("twod", "wavefront"))
        corpus = generate_corpus(6, seed=0, config=cfg)
        assert {s.family for s in corpus} == {"twod", "wavefront"}

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            generate_scenario(0, family="nope")


class TestOneRequest:
    def test_success_record(self):
        sc = generate_scenario(1, family="wavefront")
        request = PlanRequest(sc.name, sc.source)
        r = plan_many([request], nprocs=4, serial=True, verify=True).results[0]
        assert r.ok and r.error is None
        assert r.total_cost is not None and r.distribution is not None
        assert r.verified is True
        assert r.seconds > 0
        assert r.alignments  # every declared array rendered

    def test_failure_is_diagnosed_not_raised(self):
        r = plan_many([PlanRequest("broken", "real A(0)")], serial=True).results[0]
        assert not r.ok
        assert r.error and "ValueError" in r.error

    def test_a_character_outside_ascii_is_the_tasks_error(self):
        """``str.isdigit`` took ``²`` (and ``int`` refused it) and ``٣``
        (read as 3); the language's characters are ASCII."""
        requests = [PlanRequest(n, f"real A({c})\nA = 1") for n, c in (("sup", "²"), ("ar", "٣"))]
        results = plan_many(requests, serial=True).results
        assert [r.error for r in results] == [
            "LexError: line 1: unexpected character '²' at col 8",
            "LexError: line 1: unexpected character '٣' at col 8",
        ]

    @pytest.mark.parametrize(
        "source", [DEEP_SOURCE, CHAIN_SOURCE], ids=["parentheses", "flat sum"]
    )
    def test_a_line_nested_too_deep_is_the_tasks_parse_error(self, source):
        request = PlanRequest("deep", source)
        want = "ParseError: deep:2: expression nested deeper than 100 levels"
        assert plan_many([request], serial=True).results[0].error == want
        pooled = plan_many([request, request], jobs=2)
        assert pooled.mode != "serial"
        assert [r.error for r in pooled.results] == [want, want]

    @pytest.mark.parametrize(
        "source", [DEEP_DO_SOURCE, DEEP_IF_SOURCE], ids=["do", "if"]
    )
    def test_blocks_nested_too_deep_are_the_tasks_parse_error(self, source):
        request = PlanRequest("deep", source)
        want = "ParseError: deep:102: blocks nested deeper than 100 levels"
        assert plan_many([request], serial=True).results[0].error == want
        pooled = plan_many([request, request], jobs=2)
        assert pooled.mode != "serial"
        assert [r.error for r in pooled.results] == [want, want]

    @pytest.mark.parametrize("kind", ["do", "if"])
    def test_blocks_at_the_nesting_bound_plan(self, kind):
        request = PlanRequest("deep", nested_blocks(kind, 100))
        r = plan_many([request], serial=True).results[0]
        assert r.ok, r.error
        assert r.distribution is not None

    @pytest.mark.parametrize(
        "line",
        [
            "(" * 100 + "x" + ")" * 100,
            "sin(" * 100 + "x" + ")" * 100,
            "- " * 100 + "x",
        ],
        ids=["parentheses", "intrinsics", "unary minus"],
    )
    def test_a_line_at_the_nesting_bound_plans(self, line):
        r = plan_many([PlanRequest("deep", f"real x(8)\nx = {line}\n")], serial=True).results[0]
        assert r.ok, r.error
        assert r.distribution is not None

    def test_no_distribution_when_nprocs_none(self):
        sc = generate_scenario(2, family="shift1d")
        request = PlanRequest(sc.name, sc.source)
        r = plan_many([request], nprocs=None, serial=True).results[0]
        assert r.ok and r.distribution is None


class TestPlanMany:
    CORPUS = generate_corpus(8, seed=3)

    def test_serial_and_process_agree_in_order_and_content(self):
        serial = plan_many(self.CORPUS, nprocs=4, serial=True)
        procs = plan_many(self.CORPUS, nprocs=4, jobs=2)
        assert serial.mode == "serial" and len(serial.results) == 8
        assert [r.name for r in serial.results] == [s.name for s in self.CORPUS]
        assert [r.name for r in procs.results] == [r.name for r in serial.results]
        assert [r.total_cost for r in procs.results] == [
            r.total_cost for r in serial.results
        ]
        assert [r.distribution for r in procs.results] == [
            r.distribution for r in serial.results
        ]

    def test_failures_do_not_poison_the_batch(self):
        corpus = [self.CORPUS[0], "syntactic junk (", self.CORPUS[1]]
        report = plan_many(corpus, nprocs=4, serial=True)
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.failures[0].error
        assert "FAILED" in report.render()

    def test_cache_counters_surface_in_report(self):
        # From empty caches, so the counts are the batch's own whatever
        # ran before.  A cell surfaces once it is looked up at all; only
        # the moment sums are certain to repeat inside one batch.
        cachestats.clear_caches()
        report = plan_many(self.CORPUS, nprocs=4, serial=True)
        totals = report.cache_totals()
        for cell in ("distrib.move_records", "align.moments"):
            assert sum(totals.get(cell, (0, 0))) > 0, cell
        assert totals["align.moments"][0] > 0
        rates = cachestats.hit_rate(totals)
        assert 0.0 <= min(rates.values()) and max(rates.values()) <= 1.0
        rendered = report.render()
        assert "cache align.moments" in rendered
        assert report.throughput > 0

    def test_report_json_round_trips(self):
        report = plan_many(self.CORPUS[:3], nprocs=4, serial=True, verify=True)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["programs"] == 3 and blob["ok"] == 3
        assert len(blob["results"]) == 3
        assert blob["results"][0]["verified"] is True

    def test_program_and_source_inputs(self):
        from repro.lang import programs

        report = plan_many(
            [programs.example1(), "real A(4)\nA(1:4) = A(1:4) + 1.0"],
            nprocs=None,
            serial=True,
        )
        assert all(r.ok for r in report.results)
        assert report.results[0].name == "example1"


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _span_state(_) -> tuple:
    """A worker's tracing state: on/off, its recorder, its open spans."""
    return obs._enabled, obs._recorder, len(obs._stack())


class TestBatchPool:
    """``plan_many`` keeps one worker pool for the process: a call with
    the same ``jobs`` runs on the last call's workers, another ``jobs``
    replaces them, and the interpreter still exits on its own."""

    CORPUS = generate_corpus(6, seed=3)

    def test_two_pooled_calls_run_on_the_same_workers(self):
        want = report_facts(plan_many(self.CORPUS, nprocs=4, serial=True))
        engine.close_batch_pool()
        others = _children()
        first = plan_many(self.CORPUS, nprocs=4, jobs=2)
        workers = _children() - others
        second = plan_many(self.CORPUS, nprocs=4, jobs=2)
        assert len(workers) == 2
        assert _children() - others == workers
        for report in (first, second):
            assert (report.mode, report.jobs) == ("process", 2)
            assert report_facts(report) == want

    def test_another_jobs_replaces_the_pool(self):
        engine.close_batch_pool()
        others = _children()
        plan_many(self.CORPUS, nprocs=4, jobs=2)
        two = _children() - others
        report = plan_many(self.CORPUS, nprocs=4, jobs=3)
        three = _children() - others
        assert (report.mode, report.jobs) == ("process", 3)
        assert len(two) == 2 and len(three) == 3
        assert not two & three  # the 2-worker pool was joined

    def test_threads_with_different_jobs_all_plan(self):
        """More callers than cores, alternating ``jobs`` 2 and 3, under a
        short switch interval: every call plans what a serial run plans,
        and one pool is left, so no replaced pool kept its workers."""
        want = report_facts(plan_many(self.CORPUS, nprocs=4, serial=True))
        engine.close_batch_pool()
        others = _children()
        sizes = (2, 3) * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(sizes)) as threads:
                futures = [
                    threads.submit(plan_many, self.CORPUS, nprocs=4, jobs=jobs)
                    for jobs in sizes
                ]
                reports = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for jobs, report in zip(sizes, reports):
            assert (report.mode, report.jobs) == ("process", jobs)
            assert report_facts(report) == want
        assert len(_children() - others) == engine._pool.jobs

    def test_workers_forked_under_a_recording_do_not_record(self):
        """The pool forks inside a caller's recording and open span; the
        workers record nothing of a later untraced call, where a copied
        recorder would grow for the life of the process."""
        engine.close_batch_pool()
        with obs.recording() as rec, obs.span("caller"):
            plan_many(self.CORPUS, nprocs=4, jobs=2)
        report = plan_many(self.CORPUS, nprocs=4, jobs=2)
        assert report.mode == "process"
        assert len(rec.roots) == 1  # the caller's own span, nothing shipped
        states = engine._pool.map(_span_state, range(8))
        assert states == [(False, None, 0)] * 8

    def test_an_interpreter_with_a_live_pool_exits(self):
        script = (
            "from repro.batch import plan_many\n"
            "report = plan_many(['real A(64)\\nA(1:63) = A(2:64)'] * 2, jobs=2)\n"
            "print(report.mode, report.jobs)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        res = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (res.returncode, res.stdout, res.stderr) == (0, "process 2\n", "")


class TestCacheStatsDelta:
    """Snapshot arithmetic: the per-name difference over the union of names."""

    def test_plain_increments(self):
        before = {"a": (1, 2), "b": (0, 0)}
        after = {"a": (4, 2), "b": (0, 0), "c": (5, 1)}
        assert cachestats.delta(before, after) == {"a": (3, 0), "c": (5, 1)}


class TestCacheHygiene:
    def test_no_lru_cache_on_bound_methods_anywhere(self):
        """functools caches on methods leak every ``self`` they see.

        Audits every class in every repro module: no class attribute may
        be an ``lru_cache``/``cache`` wrapper whose wrapped function
        takes ``self`` (module-level cached functions are fine).
        """
        offenders = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            for _, cls in inspect.getmembers(mod, inspect.isclass):
                if cls.__module__ != mod.__name__:
                    continue
                for attr, val in vars(cls).items():
                    if isinstance(val, functools._lru_cache_wrapper):
                        sig = inspect.signature(val.__wrapped__)
                        if "self" in sig.parameters:
                            offenders.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        assert not offenders, offenders

    def test_polynomial_module_cache_is_not_a_method(self):
        from repro.ir.polynomial import _bernoulli

        assert isinstance(_bernoulli, functools._lru_cache_wrapper)
        assert "self" not in inspect.signature(_bernoulli.__wrapped__).parameters

    def test_repeated_batch_runs_do_not_grow_plan_objects(self):
        """Module caches must never keep whole plans (or their ADGs) alive."""
        from repro.adg.graph import ADG
        from repro.align.pipeline import AlignmentPlan

        corpus = generate_corpus(6, seed=11)
        plan_many(corpus, nprocs=4, serial=True)  # warm every cache
        gc.collect()
        baseline = sum(
            isinstance(o, (AlignmentPlan, ADG)) for o in gc.get_objects()
        )
        for _ in range(3):
            plan_many(corpus, nprocs=4, serial=True)
        gc.collect()
        after = sum(isinstance(o, (AlignmentPlan, ADG)) for o in gc.get_objects())
        assert after <= baseline, (baseline, after)

    def test_plan_is_collectable_after_use(self):
        from repro.align import align_program

        sc = generate_scenario(4, family="twod")
        plan = align_program(sc.parse())
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert ref() is None

    def test_module_caches_stay_bounded(self):
        corpus = generate_corpus(10, seed=13)
        plan_many(corpus, nprocs=4, serial=True)
        sizes = cache_sizes()
        assert sizes  # the registry saw the batch
        from repro.align.cost import _MOMENTS
        from repro.distrib.costmodel import _POSITIONS

        for cache in (_MOMENTS, _POSITIONS):
            assert len(cache) <= cache.maxsize

    def test_clear_caches_empties_everything(self):
        plan_many(generate_corpus(2, seed=17), nprocs=4, serial=True)
        cachestats.clear_caches()
        assert all(n == 0 for n in cache_sizes().values())
