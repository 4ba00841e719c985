"""Names, units, directions and bounds of every workload and metric.

The single table the harness, ``compare``, the README and the root
``BENCHMARK.json`` are all checked against (``test_harness.py`` asserts
the JSON file matches :func:`benchmark_json`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one contract run measures for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 8

#: The contract entry point, relative to the checkout root.
COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

#: Target machine of every workload that does not sweep machines.
NPROCS = 16

#: (name, why): what dominates the workload and what it bypasses.
WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "cold_kernels",
        "parse + align_and_distribute on 16 pinned kernels, memo caches cleared: "
        "the whole paper pipeline; replication-offsets and comm-profile dominate",
    ),
    (
        "machine_sweep",
        "fork a solved prefix and re-run only the distribute suffix on 9 machines: "
        "every alignment layer is bypassed",
    ),
    (
        "serve_warm",
        "JSON-lines plan-cache hits over one loopback connection to the serve daemon: "
        "parse, fingerprint, cache get and wire only; the planner is bypassed",
    ),
    (
        "serve_churn",
        "in-process PlanService on a fresh 12-entry cache: cold stores, evictions, "
        "prefix hits, delta hits and stale bases beside the plan hits",
    ),
    (
        "edit_label",
        "replan of label-only edits (op_swap, intrinsic_swap) against a solved base: "
        "diff, projection fingerprints, carry, distribute; the solvers are bypassed",
    ),
    (
        "edit_structural",
        "replan of structural edits (section_shift, iters_change, stmt_insert, stmt_delete): "
        "delta bookkeeping plus the whole planner",
    ),
    (
        "batch_pool",
        "plan_many over a generated 14-program corpus on a 2-worker process pool: "
        "request/result pickling, spawn and dispatch, bypassed by every other workload",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

EDIT_CLASSES = (
    "op_swap",
    "intrinsic_swap",
    "section_shift",
    "iters_change",
    "stmt_insert",
    "stmt_delete",
)
LABEL_CLASSES = EDIT_CLASSES[:2]
STRATEGIES = ("identical", "machine_only", "carry_all", "carry_skeletons", "full")
OUTCOMES = ("cold", "prefix", "plan", "delta", "stale")
CACHE_CELLS = (
    "affine.evaluate",
    "align.moments",
    "align.edge_cost",
    "distrib.move_records",
    "distrib.axis_hops",
    "distrib.front_price",
    "distrib.front_tensors",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None = None  # end-to-end only
    moves: str = ""  # which end-to-end number it should move, and where
    exact: bool = False  # a count that must repeat exactly per seed


END_TO_END: tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_ms_geomean", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("plan_cost_sum", "cost", "lower", 0.001, exact=True),
)


def _m(name, unit, better, moves, exact=False):
    return Metric(name, unit, better, None, moves, exact)


_COLD = "cold_kernels, edit_structural, batch_pool, cold share of serve_churn"
PER_LAYER: tuple[Metric, ...] = (
    # Demoted end-to-end tail: needs >= 100 timed ops in a run (10 beyond
    # the percentile), which three workloads cannot reach in RUN_SECONDS.
    _m("e2e.op_ms_p90", "ms", "lower", "pooled p90 of op latency; 0 where fewer than 10 samples lie beyond it"),
    _m("e2e.op_ms_p90_samples", "count", "higher", "timed ops behind e2e.op_ms_p90"),
    _m("e2e.machine_speed", "ratio", "higher", "the machine, not the program: reference probe time / this run's median probe; per-layer times are as the clock read them, multiply by it to compare runs"),
    # lang
    _m("lang.parse_ms", "ms", "lower", "op_ms_geomean on serve_warm (parse is on every hit); <1% of cold_kernels"),
    _m("lang.typecheck_ms", "ms", "lower", "cold_kernels (small)"),
    _m("lang.ast_nodes", "count", "lower", "size of the IR every later pass reads", True),
    # adg
    _m("adg.build_ms", "ms", "lower", "cold_kernels, edit_structural (small)"),
    _m("adg.nodes", "count", "lower", "shrinks every later pass", True),
    _m("adg.edges", "count", "lower", "shrinks every later pass", True),
    # align
    _m("align.axis_stride_ms", "ms", "lower", _COLD),
    _m("align.replication_offsets_ms", "ms", "lower", _COLD + "; nothing on machine_sweep, serve_warm, edit_label"),
    _m("align.assemble_ms", "ms", "lower", _COLD),
    _m("align.replication_rounds", "count", "lower", "fixpoint rounds summed over items", True),
    # distrib
    _m("distrib.comm_profile_ms", "ms", "lower", "cold_kernels"),
    _m("distrib.distribute_ms", "ms", "lower", "machine_sweep (all of it), edit_label, prefix hits of serve_churn"),
    _m("distrib.move_records", "count", "lower", "profile size; shrinks distribute", True),
    _m("distrib.candidates_searched", "count", "lower", "DistributionPlan.searched summed over ops", True),
    _m("distrib.exact_share", "ratio", "higher", "share of ops whose distribution search was exhaustive", True),
    # passes
    _m("passes.fingerprint_ms", "ms", "lower", "serve_warm"),
    _m("passes.fork_ms", "ms", "lower", "machine_sweep"),
    _m("passes.reuse_check_ms", "ms", "lower", "machine_sweep: Pipeline.run on a solved context"),
    _m("passes.layer_coverage", "ratio", "higher", "validity: stepped layer spans / stepped op total"),
    _m("passes.step_overhead_share", "ratio", "lower", "validity: (stepped - one-shot) / one-shot"),
    # passes.delta
    _m("delta.diff_ms", "ms", "lower", "edit_label, edit_structural"),
    *(
        _m(f"delta.replan_ms.{c}", "ms", "lower", "edit_label" if c in LABEL_CLASSES else "edit_structural")
        for c in EDIT_CLASSES
    ),
    *(
        _m(f"delta.cold_ratio.{c}", "ratio", "higher", "cold median / replan median of the same edited programs")
        for c in EDIT_CLASSES
    ),
    *(_m(f"delta.strategy.{s}_count", "count", "higher", "which replan ladder rung each op took", True) for s in STRATEGIES),
    _m("delta.reused_entry_share", "ratio", "higher", "artifact entries carried / (carried + recomputed)", True),
    _m("delta.machine_only_ms", "ms", "lower", "machine_sweep through replan(base, machine=...)"),
    # serve.cache
    *(_m(f"serve.cache.get_ms.{ns}", "ms", "lower", "serve_warm (plan), serve_churn") for ns in ("plan", "prefix")),
    *(_m(f"serve.cache.put_ms.{ns}", "ms", "lower", "serve_churn") for ns in ("plan", "prefix")),
    *(_m(f"serve.cache.entry_bytes.{ns}", "B", "lower", "serve_churn put/get, disk footprint") for ns in ("plan", "prefix")),
    _m("serve.cache.warm_start_ms", "ms", "lower", "setup_s on serve_warm"),
    _m("serve.cache.evictions", "count", "lower", "serve_churn", True),
    _m("serve.cache.hit_share", "ratio", "higher", "serve_churn", True),
    # serve.service
    *(
        _m(f"serve.handle_ms.{o}", "ms", "lower", "serve_churn ops_per_s; plan_hit also serve_warm")
        for o in ("plan_hit", "prefix_hit", "delta", "cold")
    ),
    *(_m(f"serve.outcome.{o}_count", "count", "higher", "outcome mix of serve_churn; must repeat exactly", True) for o in OUTCOMES),
    _m("serve.access_log_overhead_share", "ratio", "lower", "serve_churn: plan hits with vs without access log"),
    # serve.daemon
    _m("serve.wire_ms", "ms", "lower", "serve_warm: loopback RTT median - in-process handle median"),
    _m("serve.wire_bytes", "B", "lower", "serve_warm: request + response bytes per op"),
    # batch
    _m("batch.serial_plans_per_s", "1/s", "higher", "batch_pool baseline"),
    _m("batch.pool_plans_per_s", "1/s", "higher", "batch_pool"),
    _m("batch.pool_efficiency", "ratio", "higher", "pool / (serial * jobs)"),
    _m("batch.result_pickle_bytes", "B", "lower", "batch_pool result shipping (varies by a few bytes: the results carry timings)"),
    # obs
    _m("obs.trace_overhead_share.cold", "ratio", "lower", "none when off; ROADMAP item 6 gate (<=5%)"),
    _m("obs.trace_overhead_share.warm", "ratio", "lower", "none when off; ROADMAP item 6 gate (<=10%)"),
    # machine
    _m("machine.simulate_ms", "ms", "lower", "check phase only"),
    _m("machine.verified_ops", "count", "higher", "ops checked against the simulator this run", True),
    # cachestats
    *(
        m
        for cell in CACHE_CELLS
        for m in (
            _m(f"cache.{cell}.hit_share", "ratio", "higher", "memo effectiveness; item 2 should raise align.moments", True),
            _m(f"cache.{cell}.lookups", "count", "lower", "work reaching the memoized kernel", True),
        )
    ),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
