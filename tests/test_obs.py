"""Tests for ``repro.obs``: spans, metrics, export, recorders, and the
guarantees the observability layer makes to the rest of the system —
near-zero disabled overhead, byte-identical plans under tracing, and
span trees that survive and merge across the process pool.
"""

import json
import pickle
import time
import timeit

import pytest

from repro import cachestats
from repro.__main__ import main
from repro.batch import PlanRequest, plan_many
from repro.lang import programs
from repro.lang.generate import generate_corpus
from repro.lang.pretty import pretty
from repro.obs import (
    Histogram,
    Registry,
    TraceRecorder,
    flame,
    latency_summary,
    registry,
    to_chrome,
    write_chrome_trace,
)
from repro.obs import spans as obs

from obs_formats import by_program, check_file, validate_chrome_trace


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    assert not obs.enabled()
    yield
    assert not obs.enabled()


# -- spans --------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        s1 = obs.span("a")
        s2 = obs.span("b", k=1)
        assert s1 is s2  # the shared null object: no allocation
        with s1:
            pass

    def test_nesting_builds_a_tree(self):
        with obs.recording(label="t") as rec:
            with obs.span("root"):
                with obs.span("a"):
                    with obs.span("a1"):
                        pass
                with obs.span("b"):
                    pass
        assert [r.name for r in rec.roots] == ["root"]
        root = rec.roots[0]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]
        # Wall times nest: parent >= sum(children).
        assert root.seconds >= sum(c.seconds for c in root.children)

    def test_recording_restores_prior_state(self):
        with obs.recording(label="outer") as outer:
            with obs.recording(label="inner") as inner:
                with obs.span("x"):
                    pass
            assert obs.enabled()
            with obs.span("y"):
                pass
        assert not obs.enabled()
        assert inner.span_names() == {"x"}
        assert outer.span_names() == {"y"}

    def test_tags_and_annotate(self):
        with obs.recording() as rec:
            with obs.span("s", a=1):
                obs.annotate(b=2)
        assert rec.roots[0].tags["a"] == 1
        assert rec.roots[0].tags["b"] == 2

    def test_span_captures_cache_delta(self):
        with obs.recording() as rec:
            with obs.span("s"):
                cachestats.record_hit("obs.test.counter")
                cachestats.record_miss("obs.test.counter")
        assert rec.roots[0].cache["obs.test.counter"] == (1, 1)

    def test_exception_tags_error_and_propagates(self):
        with obs.recording() as rec:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert rec.roots[0].tags["error"] == "ValueError"

    def test_instant_records_zero_duration_child(self):
        with obs.recording() as rec:
            with obs.span("root"):
                obs.instant("marker", event="reuse")
        marker = rec.roots[0].children[0]
        assert marker.name == "marker"
        assert marker.seconds == 0.0
        assert marker.tags["event"] == "reuse"

    def test_recorder_pickles(self):
        with obs.recording(label="p") as rec:
            with obs.span("root", k="v"):
                with obs.span("child"):
                    pass
        clone = pickle.loads(pickle.dumps(rec))
        assert clone.span_names() == {"root", "child"}
        assert clone.roots[0].tags["program"] == "p"

    def test_merge_attributes_programs_and_pids(self):
        a = TraceRecorder(label="prog_a")
        with obs.recording(into=a):
            with obs.span("plan:a"):
                pass
        b = TraceRecorder(label="prog_b")
        with obs.recording(into=b):
            with obs.span("plan:b"):
                pass
        merged = TraceRecorder.merged([a, b, None], label="batch")
        by_prog = by_program(merged)
        assert set(by_prog) == {"prog_a", "prog_b"}
        assert merged.span_names() == {"plan:a", "plan:b"}


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = Registry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        snap = reg.snapshot(include_cachestats=False)
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5

    def test_kind_conflict_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        # A second read of the counter takes the lock-free path; asking
        # for another kind still goes through the lock and still raises.
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError, match="is a Counter, not a Histogram"):
            reg.histogram("x")

    def test_first_touch_from_eight_threads_is_one_metric(self):
        import sys
        import threading

        reg = Registry()
        start = threading.Barrier(8)
        seen: list = []
        n = 2000

        def work() -> None:
            start.wait()
            seen.append(reg.counter("hot"))
            for _ in range(n):
                reg.counter("hot").inc()
                reg.histogram("hot_ms").observe(1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert len({id(c) for c in seen}) == 1
        snap = reg.snapshot(include_cachestats=False)
        assert snap["counters"] == {"hot": 8 * n}
        assert snap["histograms"]["hot_ms"]["count"] == 8 * n

    def test_histogram_percentiles_within_bucket_resolution(self):
        h = Histogram("lat")
        values = [float(i) for i in range(1, 1001)]
        for v in values:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 1000
        assert s["min"] == 1.0 and s["max"] == 1000.0
        # Log-bucket resolution is ~19%; allow a generous envelope.
        assert 500 * 0.8 <= s["p50"] <= 500 * 1.25
        assert 900 * 0.8 <= s["p90"] <= 900 * 1.25
        assert 990 * 0.8 <= s["p99"] <= 1000.0
        assert s["p50"] <= s["p90"] <= s["p99"]

    def test_histogram_zero_and_negative(self):
        h = Histogram("z")
        h.observe(0.0)
        h.observe(0.0)
        h.observe(1.0)
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.observe(-1.0)

    def test_registry_absorbs_cachestats(self):
        cachestats.record_hit("obs.test.facade")
        snap = registry().snapshot()
        assert snap["counters"]["cache.obs.test.facade.hits"] >= 1
        assert "cache.obs.test.facade.misses" in snap["counters"]
        # Rendering mentions the facade counter too.
        assert "cache.obs.test.facade.hits" in registry().render()

    def test_latency_summary_groups(self):
        out = latency_summary({"fam": [0.1, 0.2], "other": []}, unit=1e3)
        assert out["fam"]["count"] == 2
        # Empty groups still carry the full summary schema (count 0 is
        # falsy for render guards), so p50/p99 reads never KeyError.
        assert out["other"]["count"] == 0
        assert out["other"]["p50"] == 0.0 and out["other"]["p99"] == 0.0
        assert 80 <= out["fam"]["p50"] <= 250

    def test_histogram_empty_percentiles_defined(self):
        h = Histogram("empty")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 0.0
        s = h.summary()
        assert s["count"] == 0
        assert s["p50"] == s["p99"] == 0.0
        assert s["min"] == s["max"] == 0.0 and s["mean"] == 0.0

    def test_histogram_all_zeros_mass_counted(self):
        # Zeros live outside `buckets`; percentiles must not skip them
        # (nor divide by zero through an empty bucket walk).
        h = Histogram("zeros")
        for _ in range(5):
            h.observe(0.0)
        assert h.buckets == {} and h.zeros == 5
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 0.0
        s = h.summary()
        assert s["count"] == 5
        assert s["p50"] == s["p90"] == s["p99"] == 0.0
        assert s["min"] == 0.0 and s["max"] == 0.0

    def test_histogram_p0_is_min_without_zeros(self):
        h = Histogram("nz")
        h.observe(3.0)
        h.observe(7.0)
        # q=0 must return the observed min, not an invented zero.
        assert h.percentile(0.0) == 3.0
        h.observe(0.0)
        assert h.percentile(0.0) == 0.0


# -- export + checker ---------------------------------------------------------


class TestExport:
    def _sample(self):
        with obs.recording(label="sample") as rec:
            with obs.span("root", answer=42):
                with obs.span("child"):
                    time.sleep(0.002)
        return rec

    def test_chrome_trace_is_schema_valid(self):
        trace = to_chrome(self._sample())
        assert validate_chrome_trace(trace) == []
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert "M" in phases and phases.count("X") == 2
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        # Rebased: the earliest event of the pid lane starts at 0.
        assert min(e["ts"] for e in xs) == 0.0

    def test_chrome_args_are_json_safe(self):
        with obs.recording() as rec:
            with obs.span("s", obj=object(), ok=1):
                pass
        trace = to_chrome(rec)
        json.dumps(trace)  # must not raise
        args = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["ok"] == 1 and isinstance(args["obj"], str)

    def test_write_and_check_file(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, self._sample())
        assert check_file(path) == []

    def test_checker_rejects_garbage(self):
        assert validate_chrome_trace(17)
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace({"traceEvents": []})
        bad = {"traceEvents": [{"ph": "X", "name": "", "pid": 0, "tid": 0}]}
        assert validate_chrome_trace(bad)
        neg = {
            "traceEvents": [
                {"ph": "X", "name": "n", "pid": 0, "tid": 0, "ts": -1, "dur": 1}
            ]
        }
        assert any("ts" in e for e in validate_chrome_trace(neg))

    def test_flame(self):
        rec = self._sample()
        art = flame(rec)
        assert "root" in art and "child" in art and "%" in art

    def test_roundtrip_dicts(self):
        rec = self._sample()
        clone = TraceRecorder.from_dict(rec.to_dict())
        assert clone.span_names() == rec.span_names()
        assert clone.roots[0].children[0].name == "child"


# -- pipeline + planner spans -------------------------------------------------


class TestPipelineSpans:
    def test_pass_spans_cover_executed_passes(self):
        from repro.align.pipeline import plan_context
        from repro.passes import MachineSpec, Pipeline

        with obs.recording(label="fig1") as rec:
            with obs.span("plan:fig1"):
                ctx = plan_context(programs.figure1())
                ctx.put("machine", MachineSpec.of(4))
                Pipeline().run(ctx, goal=("plan", "distribution"))
        executed = {
            f"pass:{ev['pass']}" for ev in ctx.trace if ev["event"] == "run"
        }
        names = rec.span_names()
        assert executed <= names
        assert "distrib.plan" in names
        assert "distrib.front_price" in names
        # One front-pricing span for every grid of the search, nothing
        # between it and the plan; candidate counts ride on the span.
        plan_span = rec.find("distrib.plan")[0]
        fronts = rec.find("distrib.front_price")
        assert {child.name for child in plan_span.children} == {"distrib.front_price"}
        assert len(fronts) == 1
        assert set(fronts[0].tags) == {"candidates", "axes", "grids"}
        assert fronts[0].tags["grids"] == plan_span.tags["grids"]
        assert sum(f.tags["candidates"] for f in fronts) == plan_span.tags["candidates"]

    def test_reuse_shows_as_instant(self):
        from repro.align.pipeline import plan_context
        from repro.passes import MachineSpec, Pipeline

        pipe = Pipeline()
        ctx = pipe.run(plan_context(programs.figure1()), goal="profile")
        with obs.recording() as rec:
            with obs.span("suffix"):
                sub = ctx.fork()
                sub.put("machine", MachineSpec.of(4))
                pipe.run(sub, goal="distribution")
        reuses = [
            r
            for r in rec.walk()
            if r.tags.get("event") == "reuse" and r.name.startswith("pass:")
        ]
        assert reuses and all(r.seconds == 0.0 for r in reuses)

    def test_fixpoint_rounds_annotated_on_span(self):
        from repro.align.pipeline import plan_context
        from repro.passes import Pipeline

        with obs.recording() as rec:
            Pipeline().run(plan_context(programs.figure1()), goal="plan")
        fix = rec.find("pass:replication-offsets")[0]
        assert fix.tags["rounds"] >= 1
        assert "converged" in fix.tags

    def test_simulator_span(self):
        from repro.machine import Distribution, measure_traffic
        from repro.align import align_program

        plan = align_program(programs.figure1())
        ident = Distribution.identity(plan.adg.template_rank)
        with obs.recording() as rec:
            measure_traffic(plan.adg, plan.alignments, ident)
        sim = rec.find("machine.simulate")[0]
        assert sim.tags["edges"] == len(plan.adg.edges)


# -- overhead + identity guarantees (satellite) -------------------------------


SMALL = """real A(24,24), V(48)
do k = 1, 24
  A(k,1:24) = A(k,1:24) + V(k:k+23)
enddo
"""


class TestOverheadGuard:
    def test_disabled_span_call_is_cheap(self):
        # The disabled path is one global check + a shared null object;
        # hold it under an (extremely generous) 20us per call so any
        # accidental allocation/snapshot on the disabled path fails loudly.
        n = 20_000
        secs = timeit.timeit(lambda: obs.span("hot", a=1), number=n)
        assert secs / n < 20e-6, f"disabled span() costs {secs / n * 1e6:.2f}us"

    def test_disabled_tracing_within_noise_of_no_obs_baseline(self, monkeypatch):
        """A pipeline run with tracing disabled must not measurably lag a
        build where the obs hooks are literally no-ops."""
        from contextlib import nullcontext

        req = PlanRequest("small", SMALL)

        def run():
            r = plan_many([req], nprocs=4, serial=True, trace=False).results[0]
            assert r.ok, r.error
            return r

        def best_of(k=5):
            best = float("inf")
            for _ in range(k):
                t0 = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - t0)
            return best

        run()  # warm caches for both measurements
        disabled = best_of()
        # The no-obs baseline: every span() site degraded to nullcontext.
        monkeypatch.setattr(obs, "span", lambda *a, **k: nullcontext())
        monkeypatch.setattr(obs, "instant", lambda *a, **k: None)
        baseline = best_of()
        # "Within noise": generous 2x headroom keeps CI immune to jitter
        # while still catching an accidentally-always-on tracing path
        # (which costs well over 2x on snapshot/delta traffic).
        assert disabled <= baseline * 2.0 + 0.01, (disabled, baseline)

    def test_tracing_never_changes_plans(self):
        req = PlanRequest("small", SMALL)
        plain = plan_many([req], nprocs=4, serial=True, verify=True).results[0]
        traced = plan_many(
            [req], nprocs=4, serial=True, verify=True, trace=True
        ).results[0]
        assert plain.ok and traced.ok
        # Byte-identical planning outcome, trace riding alongside.
        assert traced.total_cost == plain.total_cost
        assert traced.alignments == plain.alignments
        assert traced.distribution == plain.distribution
        assert (traced.dist_hops, traced.dist_moved) == (
            plain.dist_hops,
            plain.dist_moved,
        )
        assert plain.trace is None and traced.trace is not None
        assert f"plan:{req.name}" in traced.trace.span_names()


# -- cross-process span merging (satellite) -----------------------------------


class TestPoolMerging:
    def test_plan_many_merges_worker_recorders(self):
        corpus = generate_corpus(4, seed=3)
        serial = plan_many(corpus, nprocs=4, serial=True, trace=True)
        pooled = plan_many(corpus, nprocs=4, jobs=2, trace=True)
        ms, mp = serial.merged_trace(), pooled.merged_trace()
        assert ms is not None and mp is not None
        # Identical per-program span sets, pool or no pool.
        assert set(by_program(mp)) == set(by_program(ms)) == {
            sc.name for sc in corpus
        }
        for prog, roots in by_program(mp).items():
            pooled_names = {r.name for root in roots for r in root.walk()}
            serial_names = {
                r.name
                for root in by_program(ms)[prog]
                for r in root.walk()
            }
            assert pooled_names == serial_names, prog
        # And the merged multi-process trace exports cleanly.
        assert validate_chrome_trace(to_chrome(mp)) == []

    def test_untraced_batch_has_no_recorders(self):
        report = plan_many(generate_corpus(2, seed=0), nprocs=4, serial=True)
        assert report.merged_trace() is None
        assert all(r.trace is None for r in report.results)

    def test_batch_latency_summaries(self):
        corpus = generate_corpus(4, seed=2)
        report = plan_many(corpus, nprocs=4, serial=True)
        lat = report.latency_summaries()
        assert lat["*"]["count"] == 4
        assert all(
            s["p50"] <= s["p90"] <= s["p99"] for s in lat.values() if s["count"]
        )
        blob = report.to_json()
        assert blob["latency"]["*"]["count"] == 4


# -- CLI ----------------------------------------------------------------------


class TestCLITraceOut:
    @pytest.fixture
    def prog_file(self, tmp_path):
        f = tmp_path / "fig1.dp"
        f.write_text(pretty(programs.figure1()))
        return str(f)

    def test_trace_out_writes_valid_chrome_trace(
        self, prog_file, tmp_path, capsys
    ):
        out = str(tmp_path / "trace.json")
        assert main([prog_file, "--distribute", "4", "--trace-out", out]) == 0
        printed = capsys.readouterr().out
        assert "trace written to" in printed
        assert check_file(out) == []
        blob = json.load(open(out))
        names = {e["name"] for e in blob["traceEvents"]}
        assert "repro" in names and "pass:distribute" in names
        # Acceptance gate: the root span tree accounts for >=90% of the
        # run's measured wall time (children of "repro" + leaf shares).
        roots = [
            e
            for e in blob["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "repro"
        ]
        assert len(roots) == 1
        children = [
            e
            for e in blob["traceEvents"]
            if e.get("ph") == "X"
            and e["name"] != "repro"
            and e.get("ts", 0) >= roots[0]["ts"]
        ]
        top = [
            e
            for e in children
            if not any(
                o is not e
                and o["ts"] <= e["ts"]
                and e["ts"] + e["dur"] <= o["ts"] + o["dur"]
                for o in children
            )
        ]
        covered = sum(e["dur"] for e in top)
        assert covered >= 0.9 * roots[0]["dur"], (covered, roots[0]["dur"])

    def test_metrics_flag(self, prog_file, capsys):
        assert main([prog_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "cache.align.moments.hits" in out

    def test_batch_trace_out(self, tmp_path, capsys):
        out = str(tmp_path / "batch.json")
        assert (
            main(["--batch", "3", "--jobs", "1", "--trace-out", out]) == 0
        )
        assert "trace written to" in capsys.readouterr().out
        assert check_file(out) == []
