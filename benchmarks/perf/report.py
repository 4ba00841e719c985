"""``run``: every workload in fresh interpreters, aggregated and printed.

A run is T trials per workload, each one contract invocation of
``run.py`` in its own interpreter, interleaved round-robin across the
workloads so machine drift is spread over all of them.  Every metric is
reported as the median over trials with its quartiles and sample count.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import corpus, stats
from .driver import OUT_DIR, detail_path
from .spec import E2E_BY_NAME, END_TO_END, PER_LAYER, WORKLOAD_NAMES

HISTORY = os.path.join(corpus.HERE, "history.jsonl")
SCHEMA = 2

#: Seconds one trial measures for: half a contract run's, so that three
#: trials of seven workloads end inside three minutes.
TRIAL_SECONDS = 4


def provenance(seeds, seconds) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=corpus.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout that is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seeds": seeds,
        "trials": len(seeds),
        "seconds": seconds,
        "load_start": os.getloadavg()[0],
    }


def _trial(job) -> dict:
    """One contract run in a fresh interpreter; what it wrote beside its result line."""
    workload, seed, seconds, trace = job
    print(f"  seed {seed} {workload} trace={trace}", file=sys.stderr, flush=True)
    cmd = corpus.run_cmd(workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    subprocess.run(cmd, env=corpus.child_env("once"), check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(detail_path(workload, trace), encoding="utf-8") as f:
        return json.load(f)


def _aggregate(trials: list[dict]) -> dict:
    out = {}
    for name, first in trials[0]["metrics"].items():
        values = [t["metrics"][name]["value"] for t in trials]
        out[name] = {**stats.summary(values), "values": values, "unit": first["unit"]}
    return out


def run_all(args) -> dict:
    seeds = [args.seed + t for t in range(1 if args.quick else args.trials)]
    seconds = 0 if args.quick else TRIAL_SECONDS  # 0: one round
    result = {"schema": SCHEMA, "provenance": provenance(seeds, seconds), "workloads": {}}
    jobs = [(w, seed, seconds, trace) for seed in seeds for w in WORKLOAD_NAMES for trace in ((0, 1) if args.trace else (0,))]
    trials: dict[tuple[str, int], list[dict]] = {}
    # One trial at a time, so each has the machine to itself; a smoke run,
    # whose times are not measurements, overlaps two.
    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        for (w, _, _, trace), detail in zip(jobs, pool.map(_trial, jobs)):
            trials.setdefault((w, trace), []).append(detail)
    for w in WORKLOAD_NAMES:
        plain = trials[(w, 0)]
        entry = {
            "end_to_end": _aggregate(plain),
            "attempted": [t["attempted"] for t in plain],
            "failed": [t["failed"] for t in plain],
            "failures": [f for t in plain for f in t["failures"]][:20],
            "rounds": [t["rounds"] for t in plain],
            "machine_speed": [t["machine_speed"] for t in plain],
            "wall_ops_per_s": [t["wall_ops_per_s"] for t in plain],
            "items": {
                item: {
                    "op_ms": stats.median([t["items"][item]["op_ms"] for t in plain if item in t["items"]]),
                    "n": sum(t["items"][item]["n"] for t in plain if item in t["items"]),
                }
                for item in plain[0]["items"]
            },
            "op_ms_p90": plain[-1]["op_ms_p90"],
            "op_samples": plain[-1]["op_samples"],
        }
        if (w, 1) in trials:
            traced = trials[(w, 1)]
            entry["per_layer"] = _aggregate(traced)
            entry["layer_share"] = traced[-1]["layer_share"]
            entry["failed"] += [t["failed"] for t in traced]
            entry["attempted"] += [t["attempted"] for t in traced]
        result["workloads"][w] = entry
    prov = result["provenance"]
    prov["load_end"] = os.getloadavg()[0]
    prov["noisy"] = max(prov["load_start"], prov["load_end"]) > (prov["nproc"] or 1)
    return result


def _fmt(v: float) -> str:
    if v == 0 or abs(v) >= 1000:
        return f"{v:.0f}"
    return f"{v:.4g}"


def print_result(result: dict) -> None:
    layer_names = [m.name for m in PER_LAYER]
    for w, entry in result["workloads"].items():
        attempted, failed = sum(entry["attempted"]), sum(entry["failed"])
        print(f"\n== {w}  (rounds per trial {entry['rounds']})")
        print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}  bound")
        for m in END_TO_END:
            s = entry["end_to_end"][m.name]
            print(f"  {m.name:34s} {m.unit:6s} {_fmt(s['median']):>12s} {_fmt(s['q1']):>12s} {_fmt(s['q3']):>12s} {s['n']:4d}  {m.bound:g} ({m.better} is better)")
        print(f"  {'failed_share':34s} {'ratio':6s} {_fmt(failed / attempted):>12s} {'':>12s} {'':>12s} {attempted:4d}  0 ({failed} of {attempted} ops)")
        print(f"  {'machine_speed':34s} {'ratio':6s} {_fmt(stats.median(entry['machine_speed'])):>12s}  "
              f"ops / wall second as the clock read it: {_fmt(stats.median(entry['wall_ops_per_s']))}")
        p90 = entry["op_ms_p90"]
        tail = "not printed: fewer than 10 samples beyond it" if p90 is None else _fmt(p90)
        print(f"  {'op_ms_p90 (one trial, pooled)':34s} {'ms':6s} {tail:>12s}  samples={entry['op_samples']}")
        for f in entry["failures"]:
            print(f"  FAILED {f}")
        print("  items (median op latency; geomean of its ops' medians where an item has several):")
        for item, row in entry["items"].items():
            print(f"    {item:44s} {row['op_ms']:10.3f} ms  n={row['n']}")
        if "per_layer" in entry:
            print(f"  {'per-layer metric':44s} {'unit':6s} {'median':>12s} {'n':>4s}  share of op time")
            for name in layer_names:
                s = entry["per_layer"][name]
                if s["median"] == 0 and s["q3"] == 0:
                    continue  # a layer this workload's spans never enter
                share = f"{entry['layer_share'][name]:.3f}" if name in entry["layer_share"] else ""
                print(f"  {name:44s} {s['unit']:6s} {_fmt(s['median']):>12s} {s['n']:4d}  {share}")
    prov = result["provenance"]
    flag = "  NOISY: load average above nproc" if prov["noisy"] else ""
    print(f"\ncommit {prov['commit']}  python {prov['python']} numpy {prov['numpy']} scipy {prov['scipy']}  "
          f"nproc {prov['nproc']}  load {prov['load_start']:.2f}->{prov['load_end']:.2f}{flag}")
    print(f"seeds {prov['seeds']}  seconds {prov['seconds']}  PYTHONHASHSEED {prov['pythonhashseed']}")


def print_spreads(result: dict) -> bool:
    """Run-to-run spread of every end-to-end metric against its bound."""
    ok = True
    if result["provenance"]["trials"] < 4:
        return ok  # quartiles of fewer than four runs say nothing
    print(f"\n  {'workload':16s} {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w, entry in result["workloads"].items():
        for m in END_TO_END:
            s = entry["end_to_end"][m.name]
            spread = stats.spread(s["values"])
            verdict = "" if spread <= m.bound / 3 else ("  > bound/3" if spread <= m.bound else "  > BOUND")
            ok = ok and spread <= m.bound
            print(f"  {w:16s} {m.name:16s} {_fmt(s['median']):>12s} {spread:8.4f} {m.bound:6g}{verdict}")
    return ok


def cmd_run(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_all(args)
    print_result(result)
    steady = print_spreads(result)
    out = args.out or os.path.join(OUT_DIR, time.strftime("run-%Y%m%d-%H%M%S.json"))
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(f"\nresult file: {os.path.relpath(out)}")
    if not args.quick:
        line = {
            "ts": time.time(),
            **{k: result["provenance"][k] for k in ("commit", "seeds", "seconds", "noisy")},
            "trace": bool(args.trace),
            "summary": {
                w: {m: round(entry["end_to_end"][m]["median"], 4) for m in E2E_BY_NAME}
                for w, entry in result["workloads"].items()
            },
        }
        with open(HISTORY, "a", encoding="utf-8") as f:
            f.write(json.dumps(line) + "\n")
    failed = sum(sum(e["failed"]) for e in result["workloads"].values())
    return 0 if failed == 0 and steady else 1
