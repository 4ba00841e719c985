"""The serving layer: persistent plan cache, service, daemon.

Covers :mod:`repro.serve` end to end — the fingerprint-keyed
:class:`PlanCache` (round trips, hits served from memory, LRU
eviction, warm start across a fresh process, schema-version
invalidation, atomic-write hygiene, the refusal of a key part that is
not a fingerprint), the in-process :class:`PlanService` (cold/warm/prefix
paths with byte-identical payloads for every generator family,
backpressure, error responses, fingerprints read back as delta bases),
and the asyncio daemon protocol.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import subprocess
import sys

import pytest

from conftest import CHAIN_SOURCE, DEEP_DO_SOURCE, DEEP_IF_SOURCE, DEEP_SOURCE
from repro.obs.metrics import registry
from repro.passes import PlanContext, content_fingerprint
from repro.serve import (
    MISS,
    SCHEMA_VERSION,
    PlanCache,
    PlanDaemon,
    PlanService,
    ServeRequest,
)

SRC = """
real A(64), B(64)
A(1:63) = A(1:63) + B(2:64)
"""

SRC2 = """
real C(32), D(32)
C(1:32) = C(1:32) + D(1:32)
"""

SRC_EDIT = SRC.replace("A(1:63) + B(2:64)", "A(1:63) - B(2:64)")


def _counter(name: str) -> int:
    return registry().counter(name).value


def _count_loads(monkeypatch) -> list[str]:
    """Record the path of every file :class:`PlanCache` reads."""
    loads = []
    real = PlanCache._load

    def counting(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(PlanCache, "_load", staticmethod(counting))
    return loads


def _entry_files(root: str) -> list[str]:
    """The ``.pkl`` entry files under a cache directory, sorted."""
    return sorted(
        os.path.join(root, ns, f)
        for ns in ("plan", "prefix")
        for f in os.listdir(os.path.join(root, ns))
        if f.endswith(".pkl")
    )


# -- PlanCache: key discipline -------------------------------------------------


class TestCacheKeys:
    def test_round_trip_memory(self):
        cache = PlanCache()
        assert cache.get("plan", ("abc123",)) is MISS
        cache.put("plan", ("abc123",), {"x": 1})
        assert cache.get("plan", ("abc123",)) == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_none_payload_distinct_from_miss(self):
        cache = PlanCache()
        cache.put("plan", ("abc123",), None)
        assert cache.get("plan", ("abc123",)) is None

    def test_a_missing_fingerprint_is_refused(self):
        # A planner input that cannot be rendered has no fingerprint
        # (None): it can be neither stored nor probed.
        cache = PlanCache()
        for bad in (None, ""):
            with pytest.raises(ValueError, match="is not a fingerprint"):
                cache.put("plan", ("abc123", bad), {"x": 1})
            with pytest.raises(ValueError, match="is not a fingerprint"):
                cache.get("plan", ("abc123", bad))

    def test_any_string_is_a_key_a_probe_can_miss(self):
        # A client quotes fingerprints back; one the cache never stored
        # is a miss, whatever it looks like.
        cache = PlanCache()
        assert cache.get("prefix", ("v3.deadbeef", "abc123")) is MISS

    def test_bad_namespace_and_empty_key_rejected(self):
        cache = PlanCache()
        with pytest.raises(ValueError, match="unknown cache namespace"):
            cache.put("nope", ("abc123",), 1)
        with pytest.raises(ValueError, match="must not be empty"):
            cache.put("plan", (), 1)
        with pytest.raises(ValueError, match="not a fingerprint"):
            cache.put("plan", ("",), 1)

    def test_namespaces_do_not_collide(self):
        cache = PlanCache()
        cache.put("prefix", ("abc123",), "p")
        cache.put("plan", ("abc123",), "q")
        assert cache.get("prefix", ("abc123",)) == "p"
        assert cache.get("plan", ("abc123",)) == "q"


class TestCacheLRU:
    def test_eviction_past_bound(self):
        cache = PlanCache(max_entries=2)
        cache.put("plan", ("a1",), 1)
        cache.put("plan", ("b2",), 2)
        cache.get("plan", ("a1",))  # refresh a1 -> b2 is now LRU
        cache.put("plan", ("c3",), 3)
        assert cache.stats.evictions == 1
        assert cache.get("plan", ("b2",)) is MISS
        assert cache.get("plan", ("a1",)) == 1
        assert cache.get("plan", ("c3",)) == 3

    def test_bound_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(max_entries=0)


# -- PlanCache: persistence ----------------------------------------------------


class TestCachePersistence:
    def test_warm_start_hit(self, tmp_path):
        root = str(tmp_path / "cache")
        PlanCache(root).put("plan", ("abc123",), {"deep": [1, 2]})
        fresh = PlanCache(root)
        assert len(fresh) == 1
        assert fresh.get("plan", ("abc123",)) == {"deep": [1, 2]}

    def test_hit_across_a_fresh_process(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root, max_entries=2)
        for key in ("a1", "b2", "c3"):  # persist, evict a1
            cache.put("plan", (key,), f"payload-{key}")
        assert cache.stats.evictions == 1
        probe = (
            "import sys; from repro.serve import PlanCache, MISS\n"
            f"c = PlanCache({root!r})\n"
            "assert c.get('plan', ('a1',)) is MISS  # evicted stays gone\n"
            "assert c.get('plan', ('b2',)) == 'payload-b2'\n"
            "assert c.get('plan', ('c3',)) == 'payload-c3'\n"
            "print('cross-process-ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0, out.stderr
        assert "cross-process-ok" in out.stdout

    def test_schema_version_mismatch_invalidated(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root)
        cache.put("plan", ("abc123",), "current")
        (path,) = [
            os.path.join(root, "plan", f)
            for f in os.listdir(os.path.join(root, "plan"))
        ]
        entry = pickle.loads(open(path, "rb").read())
        entry["schema"] = SCHEMA_VERSION + 1
        with open(path, "wb") as f:
            f.write(pickle.dumps(entry))
        fresh = PlanCache(root)
        assert fresh.get("plan", ("abc123",)) is MISS
        assert fresh.stats.invalidated == 1
        assert not os.path.exists(path)  # deleted, not left to re-fail

    def test_truncated_entry_is_a_clean_miss(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root)
        cache.put("plan", ("abc123",), list(range(100)))
        (path,) = [
            os.path.join(root, "plan", f)
            for f in os.listdir(os.path.join(root, "plan"))
        ]
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2])
        fresh = PlanCache(root)
        assert fresh.get("plan", ("abc123",)) is MISS
        assert fresh.stats.invalidated == 1
        assert not os.path.exists(path)

    def test_stray_tmp_files_swept_at_warm_start(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root)
        cache.put("plan", ("abc123",), 1)
        stray = os.path.join(root, "plan", ".tmp-killed-writer~")
        with open(stray, "wb") as f:
            f.write(b"partial")
        fresh = PlanCache(root)
        assert not os.path.exists(stray)
        assert len(fresh) == 1  # the stray was not indexed as an entry

    def test_warm_start_respects_shrunk_bound(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root, max_entries=8)
        for i in range(5):
            cache.put("plan", (f"k{i}",), i)
        fresh = PlanCache(root, max_entries=2)
        assert len(fresh) == 2
        assert fresh.stats.evictions == 3

    def test_clear_removes_files(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root)
        cache.put("plan", ("abc123",), 1)
        cache.put("prefix", ("abc123",), 2)
        cache.clear()
        assert len(cache) == 0
        for ns in ("plan", "prefix"):
            assert os.listdir(os.path.join(root, ns)) == []

    # -- hits are served from memory, in both modes --

    def test_a_hit_is_the_stored_object_not_a_reload(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = PlanCache(root)
        payload = {"deep": [1, 2]}
        cache.put("plan", ("abc123",), payload)
        assert cache.get("plan", ("abc123",)) is payload
        (path,) = _entry_files(root)
        os.unlink(path)
        assert cache.get("plan", ("abc123",)) is payload
        assert PlanCache(root).get("plan", ("abc123",)) is MISS

    def test_a_warm_started_entry_is_read_from_disk_once(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "cache")
        PlanCache(root).put("prefix", ("abc123",), {"deep": [1, 2]})
        loads = _count_loads(monkeypatch)
        fresh = PlanCache(root)
        first, second, third = (
            fresh.get("prefix", ("abc123",)) for _ in range(3)
        )
        assert first == {"deep": [1, 2]} and first is second is third
        assert loads == _entry_files(root)

    def test_a_file_corrupted_after_its_first_read_is_caught_by_the_next_process(
        self, tmp_path
    ):
        root = str(tmp_path / "cache")
        PlanCache(root).put("plan", ("abc123",), "current")
        reader = PlanCache(root)
        assert reader.get("plan", ("abc123",)) == "current"
        (path,) = _entry_files(root)
        blob = bytearray(open(path, "rb").read())
        blob[blob.index(b"abc123")] ^= 1  # the echoed key: "abc123" -> "`bc123"
        with open(path, "wb") as f:
            f.write(bytes(blob))
        assert reader.get("plan", ("abc123",)) == "current"
        assert reader.stats.invalidated == 0
        fresh = PlanCache(root)
        assert fresh.get("plan", ("abc123",)) is MISS
        assert fresh.stats.invalidated == 1
        assert not os.path.exists(path)

    def test_eviction_and_clear_delete_the_files_of_decoded_entries(
        self, tmp_path
    ):
        root = str(tmp_path / "cache")
        PlanCache(root).put("prefix", ("a1",), 1)
        cache = PlanCache(root, max_entries=2)
        assert cache.get("prefix", ("a1",)) == 1  # decoded from its file
        cache.put("plan", ("b2",), 2)
        cache.put("plan", ("c3",), 3)  # evicts a1
        cache.put("prefix", ("d4",), 4)  # evicts b2
        assert cache.stats.evictions == 2 and len(_entry_files(root)) == 2
        cache.clear()
        assert _entry_files(root) == []

    def test_kernels_and_label_edits_are_served_off_prefixes_loaded_from_disk(
        self, tmp_path, monkeypatch
    ):
        """The benchmark's 16 kernels planned cold into a directory; fresh
        services on it answer each kernel on a new machine (a prefix
        hit) and each ``op_swap`` edit off its kernel (a delta), every
        base read from disk, every payload the bytes a memory-only
        service answers."""
        from pathlib import Path

        corpus = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"
        kernels = {p.stem: p.read_text() for p in sorted(corpus.glob("*.dp"))}
        edits = {
            p.name.split(".")[0]: (p.name[: -len(".dp")], p.read_text())
            for p in sorted((corpus / "edits").glob("*.op_swap.dp"))
        }
        assert len(kernels) == 16 and len(edits) == 15
        cold = [ServeRequest(k, src, nprocs=4) for k, src in kernels.items()]
        torus = [
            ServeRequest(k, src, topology="torus:4x4")
            for k, src in kernels.items()
        ]
        with PlanService() as memory:
            base = {}
            for r in cold:
                resp = memory.handle(r)
                assert resp.cached is None
                base[r.name] = resp.fingerprints["program"]
            deltas = [
                ServeRequest(name, src, nprocs=4, base_fingerprint=base[k])
                for k, (name, src) in edits.items()
            ]
            want = [pickle.dumps(memory.handle(r).plan) for r in torus + deltas]

        root = str(tmp_path / "cache")
        with PlanService(cache_dir=root) as svc:
            for r in cold:
                assert svc.handle(r).cached is None
        loads = _count_loads(monkeypatch)
        got = []
        for requests, outcome in ((torus, "prefix"), (deltas, "delta")):
            del loads[:]
            with PlanService(cache_dir=root) as svc:
                for r in requests:
                    resp = svc.handle(r)
                    assert resp.cached == outcome, (r.name, resp.error)
                    got.append(pickle.dumps(resp.plan))
                assert svc.cache.stats.invalidated == 0
            assert len(loads) == len(requests)  # one base read from disk each
        assert got == want

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_serving_off_an_entry_never_writes_into_it(self, tmp_path, on_disk):
        """Every hit shares the kept entry: a daemon's threads serve one
        decoded prefix at once, so nothing downstream may mutate it."""
        root = str(tmp_path / "cache") if on_disk else None
        with PlanService(cache_dir=root) as svc:
            cold = svc.handle(ServeRequest("q", SRC, nprocs=4))
            fp = cold.fingerprints
            prefix_key = (fp["program"], fp["options"])
            plan_key = prefix_key + (fp["machine"],)
            prefix = svc.cache.get("prefix", prefix_key)
            payload = svc.cache.get("plan", plan_key)
            before = pickle.dumps(prefix), pickle.dumps(payload)
            outcomes = [
                svc.handle(r).cached
                for r in (
                    ServeRequest("q", SRC, nprocs=8),
                    ServeRequest(
                        "q", SRC_EDIT, nprocs=4, base_fingerprint=fp["program"]
                    ),
                    ServeRequest("q", SRC, nprocs=4),
                )
            ]
            assert outcomes == ["prefix", "delta", "plan"]
            assert svc.cache.get("prefix", prefix_key) is prefix
            assert svc.cache.get("plan", plan_key) is payload
            assert (pickle.dumps(prefix), pickle.dumps(payload)) == before


# -- content fingerprints -----------------------------------------------------


class TestContentFingerprints:
    def test_derived_artifacts_have_no_fingerprint(self):
        ctx = PlanContext()
        ctx.put("x", object())
        assert ctx.artifact("x").fingerprint is None
        clone = pickle.loads(pickle.dumps(ctx))
        assert "_nonce" not in vars(clone)
        assert clone.artifact("x").fingerprint is None

    def test_affine_forms_are_content_addressable(self):
        # AffineForm's own renderer: without it every AST containing
        # an AffineForm would have no fingerprint and fall out of the
        # persistent cache.
        from repro.ir.affine import AffineForm
        from repro.ir.symbols import LIV

        i = LIV("i", 1)
        f1 = content_fingerprint(AffineForm(1, {i: 2}))
        f2 = content_fingerprint(AffineForm(1, {i: 2}))
        f3 = content_fingerprint(AffineForm(1, {i: 3}))
        assert f1 is not None and f1 == f2 and f1 != f3

    def test_generated_corpus_is_content_addressable(self):
        # Every generator family must produce cacheable programs, or
        # the serving cache silently degrades to a passthrough.
        from repro.align.pipeline import plan_context
        from repro.lang.generate import generate_corpus
        from repro.lang.parser import parse

        for scenario in generate_corpus(7, seed=0):
            ctx = plan_context(parse(scenario.source, name=scenario.name))
            art = ctx.artifact("program")
            assert art.fingerprint is not None, scenario.family


# -- PlanService ---------------------------------------------------------------


class TestPlanService:
    def test_cold_then_plan_hit_then_prefix_hit(self):
        with PlanService() as svc:
            cold = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert cold.ok and cold.cached is None
            warm = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert warm.ok and warm.cached == "plan"
            # Same program, new machine: the machine-independent prefix
            # is reused, only the distribution suffix runs.
            other = svc.handle(ServeRequest("q", SRC, nprocs=8))
            assert other.ok and other.cached == "prefix"
            assert pickle.dumps(cold.plan) == pickle.dumps(warm.plan)
            assert other.plan["machine"] != cold.plan["machine"]

    def test_warm_hits_are_byte_identical_for_every_family(self, tmp_path):
        from repro.lang.generate import generate_corpus

        root = str(tmp_path / "cache")
        corpus = generate_corpus(7, seed=3)  # one scenario per family
        reqs = [ServeRequest(s.name, s.source, nprocs=4) for s in corpus]
        with PlanService(cache_dir=root) as svc:
            cold = {r.name: svc.handle(r) for r in reqs}
        # A fresh instance on the same directory: every hit must come
        # from disk and decode to byte-identical payloads.
        with PlanService(cache_dir=root) as svc:
            for req in reqs:
                warm = svc.handle(req)
                assert warm.cached == "plan", (req.name, warm.error)
                assert pickle.dumps(warm.plan) == pickle.dumps(
                    cold[req.name].plan
                ), f"{req.name}: cache hit drifted from cold plan"

    def test_prefix_with_padded_axis_fronts_is_replanned(self, tmp_path):
        # Schema 2 prefixes carry AxisFronts of padded (records,
        # max_len) tensors under the field names schema 3 uses for 1-D
        # pairs; pricing one would raise on every prefix hit.  A warm
        # start must drop it.
        import dataclasses

        import numpy as np

        from repro.lang.generate import generate_corpus

        root = str(tmp_path / "cache")
        (scenario,) = [
            s for s in generate_corpus(7, seed=3) if s.name.startswith("shift1d")
        ]
        with PlanService(cache_dir=root) as svc:
            assert svc.handle(ServeRequest("q", scenario.source, nprocs=4)).ok
        (path,) = [
            os.path.join(root, "prefix", f)
            for f in os.listdir(os.path.join(root, "prefix"))
        ]
        entry = pickle.loads(open(path, "rb").read())
        profile = entry["payload"].get("profile")
        tensors = profile.front
        (front,) = tensors.axes
        assert front.src.ndim == 1 and front.src.size > 1
        padded = dataclasses.replace(
            front,
            src=np.stack([front.src, front.src]),
            dst=np.stack([front.dst, front.dst]),
            weight=np.stack([front.weight, front.weight]),
        )
        profile.front = dataclasses.replace(tensors, axes=(padded,))
        entry["schema"] = 2
        with open(path, "wb") as f:
            f.write(pickle.dumps(entry))
        with PlanService(cache_dir=root) as svc:
            other = svc.handle(ServeRequest("q", scenario.source, nprocs=8))
            assert other.ok and other.cached is None, other.error
            assert svc.cache.stats.invalidated == 1

    def test_default_machine_applied(self):
        with PlanService(default_nprocs=6) as svc:
            resp = svc.handle(ServeRequest("q", SRC))
            assert resp.ok
            assert "6" in resp.plan["machine"]

    def test_error_response_not_exception(self):
        with PlanService() as svc:
            before = _counter("serve.errors")
            resp = svc.handle(ServeRequest("bad", "real A(; nonsense"))
            assert resp.status == "error" and not resp.ok
            assert resp.plan is None and resp.error
            assert _counter("serve.errors") == before + 1

    def test_a_character_outside_ascii_is_an_error_reply(self):
        with PlanService() as svc:
            resp = svc.handle(ServeRequest("q", "real A(²)\nA = 1"))
            assert resp.status == "error" and resp.plan is None
            assert resp.error == "LexError: line 1: unexpected character '²' at col 8"

    @pytest.mark.parametrize(
        "source", [DEEP_SOURCE, CHAIN_SOURCE], ids=["parentheses", "flat sum"]
    )
    def test_a_line_nested_too_deep_is_an_error_reply(self, source):
        with PlanService() as svc:
            resp = svc.handle(ServeRequest("q", source))
            assert resp.status == "error" and resp.plan is None
            assert resp.error == "ParseError: q:2: expression nested deeper than 100 levels"

    @pytest.mark.parametrize(
        "source", [DEEP_DO_SOURCE, DEEP_IF_SOURCE], ids=["do", "if"]
    )
    def test_blocks_nested_too_deep_are_an_error_reply(self, source):
        with PlanService() as svc:
            resp = svc.handle(ServeRequest("q", source))
            assert resp.status == "error" and resp.plan is None
            assert resp.error == "ParseError: q:102: blocks nested deeper than 100 levels"

    def test_backpressure_rejects_past_high_water_mark(self):
        with PlanService(max_pending=1, retry_after=0.25) as svc:
            assert svc.try_admit()  # occupy the only slot
            try:
                before = _counter("serve.rejected")
                resp = svc.handle(ServeRequest("q", SRC, nprocs=4))
                assert resp.status == "rejected"
                assert resp.retry_after == 0.25
                assert resp.plan is None
                assert _counter("serve.rejected") == before + 1
            finally:
                svc.release()
            assert svc.handle(ServeRequest("q", SRC, nprocs=4)).ok

    @pytest.mark.parametrize("retry_after", [float("nan"), float("inf"), -1])
    def test_retry_after_must_be_a_finite_number_at_least_zero(
        self, retry_after, monkeypatch, capsys
    ):
        # A rejection carries the hint as a JSON number: NaN and infinity
        # would put a token no strict JSON parser accepts on the wire.
        from repro.serve import __main__ as serve_cli

        with pytest.raises(ValueError, match="retry_after must be a finite number >= 0"):
            PlanService(retry_after=retry_after)

        def no_daemon(*args, **kwargs):  # the refusal comes first
            raise AssertionError("the daemon started")

        monkeypatch.setattr(serve_cli, "run_daemon", no_daemon)
        with pytest.raises(SystemExit) as exit_:
            serve_cli.main(["--retry-after", str(retry_after)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "retry_after must be a finite number >= 0" in err
        assert "Traceback" not in err

    def test_uncacheable_requests_are_planned_but_not_stored(self, monkeypatch):
        # Simulate a machine with no fingerprint: the request must
        # still be answered, but nothing may be persisted.
        import repro.serve.service as service

        monkeypatch.setattr(service, "content_fingerprint", lambda v: None)
        with PlanService() as svc:
            before = _counter("serve.uncacheable")
            a = svc.handle(ServeRequest("q", SRC, nprocs=4))
            b = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert a.ok and b.ok
            assert b.cached is None  # no hit: nothing was stored
            assert len(svc.cache) == 0
            assert _counter("serve.uncacheable") == before + 2

    def test_a_base_it_never_issued_is_a_cold_plan(self):
        """``"v3.deadbeef"`` looks like nothing the service hands out: a
        stale base, so a cold plan and one ``serve.delta_stale`` tick —
        never an error."""
        with PlanService() as fresh:
            want = fresh.handle(ServeRequest("q", SRC, nprocs=4))
        with PlanService() as svc:
            stale = _counter("serve.delta_stale")
            errors = _counter("serve.errors")
            resp = svc.handle(
                ServeRequest("q", SRC, nprocs=4, base_fingerprint="v3.deadbeef")
            )
            assert resp.ok and resp.cached is None, resp.error
            assert pickle.dumps(resp.plan) == pickle.dumps(want.plan)
            assert _counter("serve.delta_stale") == stale + 1
            assert _counter("serve.errors") == errors

    def test_a_program_past_the_old_render_budget_is_cached_and_read_back(self):
        """1 430 declarations rendered to more than the 10 000 values the
        fingerprint once stopped at: such a program was planned cold on
        every request, and its fingerprint could not be quoted back."""
        from repro.lang.parser import parse

        decls = "real " + ", ".join(f"a{i}(8)" for i in range(1430)) + "\n"
        source, edit = decls + "a0 = a0 + a1\n", decls + "a0 = a0 - a1\n"
        with PlanService() as svc:
            cold = svc.handle(ServeRequest("wide", source, nprocs=4))
            hit = svc.handle(ServeRequest("wide", source, nprocs=4))
            base = cold.fingerprints["program"]
            delta = svc.handle(
                ServeRequest("wide", edit, nprocs=4, base_fingerprint=base)
            )
        assert cold.ok and cold.cached is None
        assert base == content_fingerprint(parse(source, name="wide"))
        assert hit.cached == "plan" and hit.plan == cold.plan
        assert delta.ok and delta.cached == "delta", delta.error

    def test_stats_shape(self):
        with PlanService() as svc:
            svc.handle(ServeRequest("q", SRC, nprocs=4))
            stats = svc.stats()
            assert stats["pending"] == 0
            assert stats["cache_dir"] is None
            assert stats["cache"]["stores"] == 2  # prefix + plan
            assert "serve.requests" in stats["counters"]
            assert set(stats["latency"]) == {"warm_ms", "cold_ms", "delta_ms"}
            assert set(stats["artifact_reuse"]) == {"reused", "recomputed"}

    def test_pooled_cold_path_matches_inline(self, tmp_path):
        inline_dir = str(tmp_path / "inline")
        pooled_dir = str(tmp_path / "pooled")
        req = ServeRequest("q", SRC, nprocs=4)
        with PlanService(cache_dir=inline_dir, jobs=1) as svc:
            inline = svc.handle(req)
        with PlanService(cache_dir=pooled_dir, jobs=2) as svc:
            pooled = svc.handle(req)
        assert inline.ok and pooled.ok
        assert pickle.dumps(inline.plan) == pickle.dumps(pooled.plan)


class TestOlderSchemaCache:
    #: The key chains of the two entries in ``tests/golden/serve_cache_pr17``,
    #: stored at schema 3 for ``("q", SRC, nprocs=4)``: program, options
    #: (and machine) digests from before the options and machine records
    #: lost their constant fields.
    STORED_KEYS = (
        ("prefix", ("5561d8a95f1b", "f98ec0f72357")),
        ("plan", ("5561d8a95f1b", "f98ec0f72357", "beaf53323b11")),
    )

    @staticmethod
    def copied(tmp_path):
        """A copy of the golden directory and its two entry files."""
        import shutil
        from pathlib import Path

        root = tmp_path / "cache"
        shutil.copytree(Path(__file__).parent / "golden" / "serve_cache_pr17", root)
        files = sorted(root.glob("*/*.pkl"))
        assert len(files) == 2
        return root, files

    def test_only_the_program_digest_of_the_stored_keys_is_current(self):
        """The options and machine records lost their constant fields, so
        their digests moved and the old entries sit under keys no request
        forms; the program digest did not move."""
        from repro.lang.parser import parse

        (_, (program_fp, options_fp)), (_, (_, _, machine_fp)) = self.STORED_KEYS
        assert content_fingerprint(parse(SRC, name="q")) == program_fp
        with PlanService() as svc:
            assert svc._options_fp != options_fp
            assert svc._machine_key(4, None)[1] != machine_fp

    def test_a_service_on_a_schema_3_directory_plans_cold(self, tmp_path):
        """A service on the directory never probes the old keys: it plans
        cold, to the payload a fresh service gives, and leaves the old
        files to the LRU bound."""
        root, files = self.copied(tmp_path)
        with PlanService() as fresh:
            want = fresh.handle(ServeRequest("q", SRC, nprocs=4))
        with PlanService(cache_dir=str(root)) as svc:
            got = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert svc.cache.stats.invalidated == 0
        assert got.ok and got.cached is None
        assert pickle.dumps(got.plan) == pickle.dumps(want.plan)
        assert all(path.exists() for path in files)

    def test_a_schema_3_cache_directory_is_invalidated_not_served(self, tmp_path):
        """A cache probing the stored keys finds the old schema, deletes
        both files and misses."""
        root, files = self.copied(tmp_path)
        cache = PlanCache(str(root))
        assert [cache.get(ns, key) for ns, key in self.STORED_KEYS] == [MISS, MISS]
        assert cache.stats.invalidated == 2
        assert not any(path.exists() for path in files)


# -- the request-key memo ------------------------------------------------------


PAPER_FRAGMENTS = (
    "figure1", "figure4", "example1", "example2", "example3", "example5",
    "lookup_table", "stencil_sweep", "skewed_wavefront",
    "triangular_sections", "doubly_nested", "conditional_update",
)


def _answer(resp) -> tuple:
    """What a client can tell two answers apart by (timing aside)."""
    return (resp.status, resp.plan, resp.fingerprints, resp.error)


@pytest.fixture
def parses(monkeypatch):
    """Every ``parse`` call the service makes, by program name."""
    import repro.serve.service as service

    calls: list[str] = []
    real = service.parse

    def counting(source, name="main"):
        calls.append(name)
        return real(source, name=name)

    monkeypatch.setattr(service, "parse", counting)
    return calls


@pytest.fixture
def machine_keys(monkeypatch):
    """Every ``machine_record`` / ``content_fingerprint`` call the
    service makes, by function name."""
    import repro.serve.service as service

    calls: list[str] = []

    for name in ("machine_record", "content_fingerprint"):

        def call(*args, name=name, real=getattr(service, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(service, name, call)
    return calls


MACHINE_NPROCS = (4, 4.0, True, "4", [4], None)
MACHINE_TOPOLOGIES = (
    None, "ring:4", "torus:2x2", "hier:(grid:2)/(grid:2)@4", "bogus:9", 7,
)


class TestRequestKeyMemo:
    def test_known_text_is_parsed_only_where_a_pass_needs_it(self, parses):
        with PlanService() as svc:
            cold = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert cold.cached is None and parses == ["q"]
            hit = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert hit.cached == "plan" and parses == ["q"]
            prefix = svc.handle(ServeRequest("q", SRC, nprocs=8))
            assert prefix.cached == "prefix" and parses == ["q"]
            base = cold.fingerprints["program"]
            delta = svc.handle(
                ServeRequest("q", SRC_EDIT, nprocs=4, base_fingerprint=base)
            )
            assert delta.cached == "delta" and parses == ["q", "q"]
            again = svc.handle(
                ServeRequest("q", SRC_EDIT, nprocs=4, base_fingerprint=base)
            )
            assert again.cached == "plan" and parses == ["q", "q"]
            assert pickle.dumps(hit.plan) == pickle.dumps(cold.plan)
            assert pickle.dumps(again.plan) == pickle.dumps(delta.plan)

    def test_memo_counters_follow_the_texts_not_the_outcomes(self):
        hit, miss = (1, 0), (0, 1)
        with PlanService() as svc:

            def ask(request, cached):
                """The response, and how far (hits, misses) moved."""
                before = svc.stats()["key_memo"]
                resp = svc.handle(request)
                assert resp.cached == cached
                after = svc.stats()["key_memo"]
                assert after["hits"] == _counter("serve.key_memo.hits")
                assert after["misses"] == _counter("serve.key_memo.misses")
                return resp, (
                    after["hits"] - before["hits"],
                    after["misses"] - before["misses"],
                )

            cold, moved = ask(ServeRequest("q", SRC, nprocs=4), None)
            assert moved == miss
            assert ask(ServeRequest("q", SRC, nprocs=8), "prefix")[1] == hit
            assert ask(ServeRequest("q", SRC, nprocs=8), "plan")[1] == hit
            edit = ServeRequest(
                "q", SRC_EDIT, nprocs=4,
                base_fingerprint=cold.fingerprints["program"],
            )
            assert ask(edit, "delta")[1] == miss
            bad, moved = ask(ServeRequest("bad", "real A(; nonsense"), None)
            assert not bad.ok and moved == miss  # counted, never kept
            assert svc.stats()["key_memo"]["entries"] == 2

    def test_one_source_under_two_names_is_two_programs(self):
        # The name is part of the program and so of its fingerprint:
        # a memo keyed on the source alone would answer y with x's plan.
        with PlanService() as svc:
            x = svc.handle(ServeRequest("x", SRC, nprocs=4))
            y = svc.handle(ServeRequest("y", SRC, nprocs=4))
            assert x.ok and y.ok
            assert x.cached is None and y.cached is None
            assert x.fingerprints["program"] != y.fingerprints["program"]
            assert (x.plan["name"], y.plan["name"]) == ("x", "y")
            assert svc.handle(ServeRequest("y", SRC, nprocs=4)).plan == y.plan

    def test_two_texts_of_one_program_share_its_plan(self, parses):
        with PlanService() as svc:
            first = svc.handle(ServeRequest("q", SRC, nprocs=4))
            second = svc.handle(ServeRequest("q", SRC + "\n\n", nprocs=4))
            assert second.cached == "plan" and parses == ["q", "q"]
            assert second.fingerprints == first.fingerprints
            assert second.plan == first.plan
            assert svc.stats()["key_memo"]["entries"] == 2

    def test_parse_error_is_answered_afresh_and_never_kept(self, tmp_path):
        log = str(tmp_path / "access.jsonl")
        bad = ServeRequest("bad", "real A(; nonsense")
        with PlanService(access_log=log) as svc:
            before = _counter("serve.errors")
            first, second = svc.handle(bad), svc.handle(bad)
            assert first.status == second.status == "error"
            assert first.error == second.error
            assert first.error.startswith("LexError: line 1")
            assert _counter("serve.errors") == before + 2
            assert svc.stats()["key_memo"]["entries"] == 0
        from repro.serve import read_access_log

        records = [r for r in read_access_log(log) if r["kind"] == "access"]
        assert [(r["status"], r["error"]) for r in records] == [
            ("error", first.error)
        ] * 2

    def test_a_program_without_a_fingerprint_is_never_kept(self, monkeypatch, parses):
        # A program that cannot be rendered has no fingerprint: there is
        # nothing to remember, so the text must be parsed every time.
        import repro.passes.core as core

        monkeypatch.setattr(core, "content_fingerprint", lambda value: None)
        with PlanService() as svc:
            before = _counter("serve.uncacheable")
            a = svc.handle(ServeRequest("q", SRC, nprocs=4))
            b = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert a.ok and b.ok and b.cached is None
            assert a.fingerprints["program"] is b.fingerprints["program"] is None
            assert parses == ["q", "q"]
            assert svc.stats()["key_memo"]["entries"] == 0
            assert _counter("serve.uncacheable") == before + 2

    def test_memo_is_bounded_and_a_forgotten_text_still_hits(self, parses):
        # Ten texts of one program: the plan cache keeps its two entries
        # while the memo, bounded like the cache, forgets the oldest.
        texts = [SRC + "\n" * i for i in range(10)]
        with PlanService(max_entries=4) as svc:
            answers = [svc.handle(ServeRequest("q", t, nprocs=4)) for t in texts]
            assert [a.cached for a in answers] == [None] + ["plan"] * 9
            assert svc.stats()["key_memo"]["entries"] == 4
            assert len(parses) == 10
            kept = svc.handle(ServeRequest("q", texts[-1], nprocs=4))
            assert kept.cached == "plan" and len(parses) == 10
            forgotten = svc.handle(ServeRequest("q", texts[0], nprocs=4))
            assert forgotten.cached == "plan" and len(parses) == 11
            assert forgotten.plan == answers[0].plan
            assert svc.stats()["key_memo"]["entries"] == 4

    def test_forgotten_plan_of_a_known_text_is_replanned(self, parses):
        # The other way round: the memo knows the text, the cache has
        # evicted its entries — the cold branch parses for itself.
        with PlanService(max_entries=2) as svc:
            first = svc.handle(ServeRequest("q", SRC, nprocs=4))
            svc.handle(ServeRequest("r", SRC2, nprocs=4))  # evicts q's two
            again = svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert again.cached is None and parses == ["q", "r", "q"]
            assert _answer(again) == _answer(first)

    def test_warm_plan_hit_derives_no_machine_key(self, machine_keys):
        derive = ["machine_record", "content_fingerprint"]
        with PlanService() as svc:
            cold = svc.handle(ServeRequest("q", SRC, topology="torus:2x2"))
            assert cold.cached is None and machine_keys == derive
            hits = [
                svc.handle(ServeRequest("q", SRC, topology="torus:2x2"))
                for _ in range(3)
            ]
            assert [h.cached for h in hits] == ["plan"] * 3
            assert machine_keys == derive
            assert all(_answer(h) == _answer(cold) for h in hits)
            # The default machine is remembered under its resolved fields.
            svc.handle(ServeRequest("q", SRC))
            svc.handle(ServeRequest("q", SRC, nprocs=4))
            assert machine_keys == derive * 2

    def test_machine_fields_of_every_type_answer_as_a_fresh_service(self):
        with PlanService() as svc:
            for nprocs in MACHINE_NPROCS:
                for topology in MACHINE_TOPOLOGIES:
                    req = ServeRequest("q", SRC, nprocs=nprocs, topology=topology)
                    with PlanService() as fresh:
                        want = _answer(fresh.handle(req))
                    first, second = svc.handle(req), svc.handle(req)
                    assert _answer(first) == want, (nprocs, topology)
                    assert _answer(second) == want, (nprocs, topology)
            # Only exact int/None and str/None fields were remembered.
            assert svc._machine_memo
            assert all(
                type(n) in (int, type(None)) and type(t) in (str, type(None))
                for n, t in svc._machine_memo
            )
            machines = [
                svc.handle(ServeRequest("q", SRC, nprocs=n))
                for n in (4, 1, 4.0, True)
            ]
        # 4.0 and True are no processor counts: refused, never answered
        # from the entries of 4 and 1 they equal as dict keys.
        assert [m.ok for m in machines] == [True, True, False, False]
        assert all("DistributionOptionsError" in m.error for m in machines[2:])

    def test_bad_machine_is_answered_afresh_and_never_kept(
        self, tmp_path, machine_keys
    ):
        log = str(tmp_path / "access.jsonl")
        bad = ServeRequest("q", SRC, nprocs=8, topology="torus:2x2")
        with PlanService(access_log=log) as svc:
            first, second = svc.handle(bad), svc.handle(bad)
            assert first.status == second.status == "error"
            assert first.error == second.error
            assert "torus:2x2" in first.error
            assert machine_keys == ["machine_record"] * 2
            assert not svc._machine_memo
            assert svc.stats()["key_memo"]["entries"] == 0
        from repro.serve import read_access_log

        records = [r for r in read_access_log(log) if r["kind"] == "access"]
        assert [(r["status"], r["error"]) for r in records] == [
            ("error", first.error)
        ] * 2

    def test_machine_memo_is_bounded_and_a_forgotten_machine_answers(
        self, machine_keys
    ):
        machines = [2, 4, 8, 16]
        with PlanService(max_entries=2) as svc:
            answers = {
                n: svc.handle(ServeRequest("q", SRC, nprocs=n)) for n in machines
            }
            assert all(a.ok for a in answers.values())
            assert machine_keys.count("machine_record") == 4
            assert len(svc._machine_memo) == 2
            again = svc.handle(ServeRequest("q", SRC, nprocs=16))
            assert machine_keys.count("machine_record") == 4  # still known
            assert _answer(again) == _answer(answers[16])
            forgotten = svc.handle(ServeRequest("q", SRC, nprocs=2))
            assert machine_keys.count("machine_record") == 5
            assert _answer(forgotten) == _answer(answers[2])
            assert len(svc._machine_memo) == 2

    def test_threads_answer_what_a_serial_service_answers(self):
        import random
        import threading

        machines = [
            {"nprocs": 4}, {"nprocs": 8}, {"topology": "ring:4"},
            {"topology": "torus:2x2"},
        ]
        texts = [
            ("q", SRC), ("r", SRC2), ("q", SRC + "\n"), ("e", SRC_EDIT),
            ("bad", "real A(; nonsense"),
        ]
        pool = [
            ServeRequest(name, source, **machine)
            for name, source in texts
            for machine in machines
        ]
        with PlanService() as serial:
            want = {req: _answer(serial.handle(req)) for req in pool}
        rng = random.Random(0)
        scripts = [[rng.choice(pool) for _ in range(50)] for _ in range(8)]
        got: list[list] = [[] for _ in scripts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PlanService() as svc:
                memo = svc.stats()["key_memo"]
                lookups = memo["hits"] + memo["misses"]

                def run(i: int) -> None:
                    for req in scripts[i]:
                        got[i].append(_answer(svc.handle(req)))

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(len(scripts))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                memo = svc.stats()["key_memo"]
                lookups = memo["hits"] + memo["misses"] - lookups
        finally:
            sys.setswitchinterval(interval)
        for script, answers in zip(scripts, got):
            assert answers == [want[req] for req in script]
        # Every request looked its text up exactly once, and only the
        # four texts that parse were ever kept.
        assert lookups == 8 * 50
        assert memo["entries"] == 4

    def test_second_ask_equals_a_fresh_service_on_the_paper_fragments(self):
        from repro.lang import pretty, programs

        machines = [
            {"nprocs": 16}, {"topology": "torus:4x4"}, {"topology": "ring:16"},
        ]
        with PlanService() as svc:
            for name in PAPER_FRAGMENTS:
                source = pretty(getattr(programs, name)())
                for machine in machines:
                    req = ServeRequest(name, source, **machine)
                    with PlanService() as fresh:
                        want = fresh.handle(req)
                    first, second = svc.handle(req), svc.handle(req)
                    assert want.ok and want.cached is None
                    assert second.cached == "plan"
                    assert _answer(first) == _answer(want), (name, machine)
                    assert _answer(second) == _answer(want), (name, machine)
                    assert pickle.dumps(second.plan) == pickle.dumps(want.plan)


# -- the daemon ----------------------------------------------------------------


class TestDaemon:
    def _roundtrip(self, messages: list[dict]) -> list[dict]:
        async def drive() -> list[dict]:
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            host, port = daemon.address
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            for msg in messages:
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            daemon.shutdown()
            await server
            return replies

        return asyncio.run(drive())

    def test_protocol_roundtrip(self):
        replies = self._roundtrip(
            [
                {"op": "ping"},
                {"op": "plan", "id": 7, "name": "q", "source": SRC, "nprocs": 4},
                {"name": "q", "source": SRC, "nprocs": 4},  # op defaults
                {"op": "stats"},
                {"op": "plan", "name": "empty", "source": "   "},
                {"op": "wat"},
            ]
        )
        ping, cold, warm, stats, bad_source, bad_op = replies
        assert ping == {"status": "ok", "pong": True}
        assert cold["status"] == "ok" and cold["cached"] is None
        assert cold["id"] == 7
        assert warm["status"] == "ok" and warm["cached"] == "plan"
        assert cold["plan"] == warm["plan"]
        assert stats["stats"]["counters"]["serve.hits.plan"] >= 1
        assert bad_source["status"] == "error"
        assert "source" in bad_source["error"]
        assert bad_op["status"] == "error"

    def test_a_base_it_never_issued_is_a_cold_plan_over_the_wire(self):
        stale = _counter("serve.delta_stale")
        cold, stats = self._roundtrip(
            [
                {"name": "q", "source": SRC, "nprocs": 4, "base_fingerprint": "v3.deadbeef"},
                {"op": "stats"},
            ]
        )
        assert cold["status"] == "ok" and cold["cached"] is None
        assert "error" not in cold
        assert stats["stats"]["counters"]["serve.delta_stale"] == stale + 1

    def test_malformed_json_keeps_connection_open(self):
        async def drive() -> list[dict]:
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            writer.write(b"{not json\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            second = json.loads(await reader.readline())
            writer.close()
            daemon.shutdown()
            await server
            return [first, second]

        first, second = asyncio.run(drive())
        assert first["status"] == "error"
        assert second == {"status": "ok", "pong": True}
