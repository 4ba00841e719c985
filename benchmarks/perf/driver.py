"""One contract run: one workload, one seed, one fresh interpreter.

Set-up and one warm-up op, ``gc.freeze()``, whole rounds of timed ops
until ``--seconds`` are spent, then the check phase outside the timed
region.  ``--trace 0`` reports the end-to-end metrics of tracing-off,
one-shot public calls; ``--trace 1`` repeats the rounds with the
harness's spans around each layer call and reports the per-layer ones.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import time

from repro import cachestats

from . import corpus, stats
from .spec import END_TO_END, EDIT_CLASSES, PER_LAYER
from .trace import Tracer
from .probe import probe_reading, ready_seconds
from .workloads import WORKLOADS, Recorder, Workload, cache_counts

perf = time.perf_counter
OUT_DIR = os.path.join(corpus.HERE, "out")

#: Fresh-interpreter repeats of the set-up beside a contract run's own.
SETUP_REPEATS = 2

#: span name -> (metric, use the span's whole duration instead of its self time)
SPAN_METRICS = {
    "lang.parse": ("lang.parse_ms", False),
    "lang.typecheck": ("lang.typecheck_ms", False),
    "adg.build": ("adg.build_ms", False),
    "align.axis_stride": ("align.axis_stride_ms", False),
    "align.replication_offsets": ("align.replication_offsets_ms", False),
    "align.assemble": ("align.assemble_ms", False),
    "distrib.comm_profile": ("distrib.comm_profile_ms", False),
    "distrib.distribute": ("distrib.distribute_ms", False),
    "passes.fingerprint": ("passes.fingerprint_ms", False),
    "passes.fork": ("passes.fork_ms", False),
    "passes.reuse_check": ("passes.reuse_check_ms", False),
    "delta.diff": ("delta.diff_ms", False),
    "delta.machine_only": ("delta.machine_only_ms", True),
    "serve.cache.get.plan": ("serve.cache.get_ms.plan", False),
    "serve.cache.get.prefix": ("serve.cache.get_ms.prefix", False),
    "serve.cache.put.plan": ("serve.cache.put_ms.plan", False),
    "serve.cache.put.prefix": ("serve.cache.put_ms.prefix", False),
    "serve.handle.plan": ("serve.handle_ms.plan_hit", True),
    "serve.handle.prefix": ("serve.handle_ms.prefix_hit", True),
    "serve.handle.delta": ("serve.handle_ms.delta", True),
    "serve.handle.cold": ("serve.handle_ms.cold", True),
    **{f"delta.replan.{c}": (f"delta.replan_ms.{c}", True) for c in EDIT_CLASSES},
}


def measure(wl: Workload, seconds: float, tracer=None, plain=None) -> Recorder:
    """Whole rounds until the budget is spent, at least one.  With
    ``plain``, every traced round is followed by an untraced one into
    that recorder."""
    rec = Recorder()
    done = 0
    while True:
        for r, tr in ((rec, tracer), (plain, None)):
            if r is not None:
                before = cachestats.snapshot()
                t0 = perf()
                if plain is not None:
                    r.probe()  # its last one is older than the other recorder's round
                wl.run_round(r, tr)
                r.probe()
                r.seconds += perf() - t0
                r.rounds += 1
                if done == 0 and r is rec:
                    rec.cache_counts = cache_counts(before, cachestats.snapshot())
        done += 1
        spent = rec.seconds + (plain.seconds if plain else 0.0)
        # Stop where another round would overshoot the budget by more
        # than stopping now undershoots it.
        if spent + spent / done / 2 > seconds:
            return rec


def ops_per_s(rec: Recorder) -> float:
    """Ops completed ÷ the timed seconds they took, at reference speed (as
    the recorder holds them); 0 when no op succeeded."""
    ok_ops = sum(len(v) for v in rec.samples.values())
    timed = sum(sum(v) for v in (rec.calls or rec.samples).values())
    return ok_ops / timed if timed else 0.0


def item_rows(wl: Workload, rec: Recorder) -> dict[str, dict]:
    """One row per item: the median latency of its op, or where an item
    stands for many ops (an outcome class of ``serve_churn``) the geometric
    mean of their medians — a median pooled over unlike ops flips between
    two neighbours from run to run."""
    by_item: dict[str, list[list[float]]] = {}
    for op, samples in rec.samples.items():
        by_item.setdefault(wl.item_of(op), []).append(samples)
    return {
        item: {"op_ms": stats.geomean(stats.median(v) for v in ops) * 1e3, "n": sum(map(len, ops))}
        for item, ops in sorted(by_item.items())
    }


def pooled_p90_ms(rec: Recorder) -> tuple[float | None, int]:
    """p90 over all timed ops of the run (``None`` with fewer than ten
    samples beyond it) and the sample count."""
    pooled = [s for v in rec.samples.values() for s in v]
    p90 = stats.percentile(pooled, 90)
    return (None if p90 is None else p90 * 1e3), len(pooled)


def layer_metrics(wl: Workload, rec: Recorder, tracer: Tracer, plain):
    out = {m.name: 0.0 for m in PER_LAYER}
    extras = wl.trace_extras(rec, tracer, plain)  # may record spans of its own
    by_span: dict[str, list[tuple[float, float]]] = {}
    in_op: dict[str, float] = {}  # self seconds of each layer inside timed ops
    op_total = op_self = 0.0
    for name, root, duration, self_s in tracer.rows():
        by_span.setdefault(name, []).append((duration, self_s))
        if root != "op":
            continue  # a side experiment of trace_extras, not a timed op
        if name == "op":
            op_total += duration
            op_self += self_s
        elif name in SPAN_METRICS:
            in_op[name] = in_op.get(name, 0.0) + self_s
    for span, (metric, whole) in SPAN_METRICS.items():
        calls = by_span.get(span)
        if calls:
            out[metric] = stats.median([d if whole else s for d, s in calls]) * 1e3
    shares = {}
    if op_total:
        out["passes.layer_coverage"] = 1.0 - op_self / op_total
        shares = {SPAN_METRICS[span][0]: s / op_total for span, s in in_op.items()}
    if plain is not None and plain.samples:
        out["passes.step_overhead_share"] = stats.median_ratio(rec.samples, plain.samples) - 1.0
    p90, out["e2e.op_ms_p90_samples"] = pooled_p90_ms(rec)
    out["e2e.op_ms_p90"] = p90 or 0.0
    out["e2e.machine_speed"] = rec.machine_speed()
    out.update(rec.cache_counts)  # exact: the first round's lookups
    out.update(wl.counts(rec))
    out.update(extras)
    return out, shares


def peak_rss_mb(wl: Workload) -> float:
    """Of this process, plus the largest child where the workload has any
    (``ru_maxrss`` of the children is the maximum over them, not their sum)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.has_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def run_workload(name, seed, seconds, trace, t_start, at_start, setup_mode=None) -> dict:
    """``t_start``: when the interpreter started; ``at_start``: the probe
    reading it took then, before importing anything of ``repro``;
    ``setup_mode``: see ``corpus.SETUP_ENV``."""
    imported = probe_reading(5)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    load_start = os.getloadavg()[0]
    wl = WORKLOADS[name](seed, workdir)
    try:
        wl.setup()
        wl.warmup()
        own_setup = ready_seconds(t_start, at_start, imported)
        if setup_mode == "only":
            return {"setup_s": own_setup}
        gc.collect()
        gc.freeze()

        metrics = {m.name: 0.0 for m in PER_LAYER}
        shares = {}
        if trace:
            tracer = Tracer()
            plain = Recorder() if wl.compare_untraced else None
            rec = measure(wl, seconds, tracer, plain)
            if rec.samples:  # with every op failed there is no layer to report
                metrics, shares = layer_metrics(wl, rec, tracer, plain)
        else:
            rec = measure(wl, seconds)
        failures = wl.check(rec)
        if trace:
            if wl.sim_seconds:
                metrics["machine.simulate_ms"] = stats.median(wl.sim_seconds) * 1e3
            metrics["machine.verified_ops"] = wl.verified_ops
            tracer.write_chrome(os.path.join(OUT_DIR, f"trace-{name}.json"))
        cost_sum = wl.plan_cost_sum(rec)
        rss = peak_rss_mb(wl)  # before the set-up repeats add children of their own
        # A traced run does not report setup_s, so it does not repeat the set-up either.
        setup_samples = wl.setup_samples(own_setup, 0 if trace or setup_mode == "once" else SETUP_REPEATS)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    rows = item_rows(wl, rec)
    if not trace:
        # The three times are at reference machine speed (README, "Noise");
        # the layer times of a traced run are as the clock read them.
        values = {
            "ops_per_s": ops_per_s(rec),
            "op_ms_geomean": stats.geomean(r["op_ms"] for r in rows.values()),
            "setup_s": stats.median(setup_samples),
            "peak_rss_mb": rss,
            "plan_cost_sum": cost_sum,
        }
        metrics = {m.name: values[m.name] for m in END_TO_END}
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    result = {
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": min(rec.attempted, len(failures)),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    # What `run` prints beside the contract line: item rows and provenance.
    p90, op_samples = pooled_p90_ms(rec)
    ok_ops = sum(len(v) for v in rec.samples.values())
    detail = {
        **result,
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": rec.rounds,
        "machine_speed": rec.machine_speed(),
        "wall_ops_per_s": ok_ops / (rec.seconds - rec.probe_seconds),
        "timed_seconds": rec.seconds,
        "failures": failures[:20],
        "items": rows,
        "layer_share": shares,
        "op_ms_p90": p90,
        "op_samples": op_samples,
        "setup_samples": setup_samples,
        "load_start": load_start,
        "load_end": os.getloadavg()[0],
    }
    with open(detail_path(name, trace), "w", encoding="utf-8") as f:
        json.dump(detail, f)
    return result


def detail_path(workload: str, trace) -> str:
    return os.path.join(OUT_DIR, f"detail-{workload}-trace{int(trace)}.json")
