"""Checks of the harness itself: ``PYTHONPATH=src pytest benchmarks/perf -q``.

Not part of the tier-1 suite (``testpaths = tests``); about 45 s, most of
it four one-round contract runs in fresh interpreters.
"""

import gc
import json
import os
import re
import shutil
import subprocess
import time
from collections import Counter

import pytest

from . import corpus, driver, spec, stats, workloads
from .compare import cmd_compare, verdict
from .probe import probe_reading
from .workloads import BatchPool, ColdKernels, Recorder, ServeChurn

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

_runs: dict = {}


def contract_run(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """One one-round contract run (memoized per argument tuple)."""
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        done = subprocess.run(
            corpus.run_cmd(workload, seed, "--trace", str(trace), "--seconds", "0"), env=corpus.child_env("once"),
            capture_output=True, text=True, timeout=300, check=True,
        )
        _runs[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _runs[key]


def test_benchmark_json_matches_spec_and_contract_limits():
    with open(os.path.join(corpus.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        data = json.load(f)
    assert data == spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["paths"] == ["benchmarks/perf"] and 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["end_to_end"]) <= 16 and 1 <= len(data["per_layer"]) <= 128
    names = [m["name"] for sec in ("workloads", "end_to_end", "per_layer") for m in data[sec]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for sec in ("end_to_end", "per_layer") for m in data[sec])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in data["end_to_end"])}]


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(99)), 90) is None  # 9 beyond
    assert stats.percentile(list(range(100)), 90) == 89  # 10 beyond
    assert stats.percentile(list(range(14)), 99) is None  # "p99" of 14 is the max
    assert stats.percentile(list(range(1000)), 99) == 989


def test_compare_verdicts():
    lower = spec.Metric("latency_ms", "ms", "lower", 0.15)
    assert verdict(lower, [10, 10.1, 10.2], [10.5, 10.6, 10.4])[0] == "ok"
    assert verdict(lower, [10, 10.1, 10.2], [12, 12.1, 12.2])[0] == "worse"
    assert verdict(lower, [8, 10, 14, 9], [8.5, 9.5, 11, 14])[0] == "unresolved"  # spread > bound
    assert verdict(lower, [8, 10, 14, 9], [5, 6, 7, 5.5])[0] == "ok"  # every B run better
    exact = spec.E2E_BY_NAME["plan_cost_sum"]
    assert verdict(exact, [100.0], [100.0])[0] == "ok" and verdict(exact, [100.0], [101.0])[0] == "worse"


def test_compare_exits_nonzero_on_a_changed_exact_count(tmp_path, capsys):
    def result_file(name, nodes):
        e2e = {m.name: {**stats.summary([1.0, 1.0]), "values": [1.0, 1.0]} for m in spec.END_TO_END}
        layers = {"adg.nodes": {"values": [nodes, nodes]}, "adg.build_ms": {"values": [0.5, nodes]}}
        entry = {"end_to_end": e2e, "failed": [0, 0], "per_layer": layers}
        path = tmp_path / name
        path.write_text(json.dumps({"provenance": {"commit": None, "seeds": [0, 1]}, "workloads": {"cold_kernels": entry}}))
        return str(path)

    a, same, changed = result_file("a.json", 329), result_file("same.json", 329), result_file("b.json", 330)
    assert cmd_compare(a, same) == 0
    assert cmd_compare(a, changed) == 1 and "adg.nodes" in capsys.readouterr().out


@pytest.mark.parametrize("workload,call,trace", [("cold_kernels", "align_and_distribute", False), ("batch_pool", "plan_many", True)])
def test_every_op_failing_is_a_result_not_a_traceback(monkeypatch, workload, call, trace):
    real = getattr(workloads, call)

    def broken(first, *args, **kw):
        if getattr(first, "name", None) == "warmup":
            return real(first, *args, **kw)
        raise RuntimeError("planner broken")

    monkeypatch.setattr(workloads, call, broken)
    try:
        result = driver.run_workload(workload, 0, 0, trace, time.perf_counter(), probe_reading(5), "once")
    finally:
        gc.unfreeze()
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1
    assert all(v["value"] == 0 for k, v in result["metrics"].items() if k not in ("setup_s", "peak_rss_mb"))


@pytest.mark.parametrize("trace,table", [(0, spec.END_TO_END), (1, spec.PER_LAYER)])
def test_result_line_schema(trace, table):
    result = contract_run("serve_churn", 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in table]
    for m in table:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert isinstance(result["metrics"][m.name]["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_repeats_counts_and_costs_exactly():
    a, b = contract_run("serve_churn", 0, 1), contract_run("serve_churn", 0, 1, repeat=1)
    exact = [m.name for m in spec.PER_LAYER if m.exact]
    assert {n: a["metrics"][n]["value"] for n in exact} == {n: b["metrics"][n]["value"] for n in exact}
    assert a["attempted"] == b["attempted"]
    mix = {o: a["metrics"][f"serve.outcome.{o}_count"]["value"] for o in spec.OUTCOMES}
    assert mix == {"cold": 16, "prefix": 32, "plan": 144, "delta": 15, "stale": 8}
    costs = {contract_run("serve_churn", seed, 0)["metrics"]["plan_cost_sum"]["value"] for seed in (0, 1)}
    assert len(costs) == 1  # the seed orders the work, it never changes it


def test_seed_changes_order_but_no_pinned_item(tmp_path):
    def schedule(seed):
        wl = ServeChurn(seed, str(tmp_path))
        wl.setup()
        return [(want, item.name, machine) for want, item, machine, _ in wl._schedule()]

    s0, s1 = schedule(0), schedule(1)
    assert s0 != s1 and Counter(s0) == Counter(s1) and s0 == schedule(0)

    def order(seed):
        wl = BatchPool(seed, str(tmp_path))
        wl.setup()
        return [s.name for s in wl.rng.sample(wl.corpus, len(wl.corpus))], wl.corpus

    (o0, c0), (o1, c1) = order(0), order(1)
    assert o0 != o1 and sorted(o0) == sorted(o1) and c0 == c1
    items = corpus.load_items()
    assert len(items) == 16 and {"jacobi2d", "redblack1d", "cg_step", "lu_wavefront"} <= {i.name for i in items}
    assert {e.edit_class for e in corpus.load_edits()} == set(spec.EDIT_CLASSES)


def test_corrupted_expected_file_fails_the_check(tmp_path):
    bad_root = tmp_path / "expected"
    shutil.copytree(corpus.EXPECTED_DIR, bad_root)
    entry = json.loads((bad_root / "example1.json").read_text())
    entry["P16"]["hops"] += 1
    (bad_root / "example1.json").write_text(json.dumps(entry))
    os.remove(bad_root / "example2.json")

    wl = ColdKernels(0, str(tmp_path))
    wl.setup()
    wl.items = [i for i in wl.items if i.name in ("example1", "example2", "example3")]
    rec = Recorder()
    wl.run_round(rec)
    assert wl.check(rec) == []  # the committed files and the simulator agree
    wl.expected = corpus.Expected(str(bad_root))
    failures = wl.check(rec)
    assert len(failures) == 2 and any("hops" in f for f in failures) and any("no expected entry" in f for f in failures)


def test_stepped_layers_cover_the_cold_op():
    metrics = contract_run("cold_kernels", 0, 1)["metrics"]
    assert metrics["passes.layer_coverage"]["value"] >= 0.95
    assert metrics["align.replication_offsets_ms"]["value"] > 0
    assert metrics["machine.verified_ops"]["value"] == 16
