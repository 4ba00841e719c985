"""``compare A.json B.json``: one row per (end-to-end metric, workload).

B is judged against A (the base of every ratio): ``worse`` when B's
median is worse than A's by more than the metric's bound, ``unresolved``
when either side's run-to-run spread is wider than the bound (unless
every run of B reads better than every run of A), ``ok`` otherwise.
A per-layer count that must repeat exactly and differs between A and B
is ``worse`` too.  Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json

from . import stats
from .spec import END_TO_END, LAYER_BY_NAME


def verdict(metric, a: list[float], b: list[float]) -> tuple[str, float]:
    """``(ok | worse | unresolved, B median / A median)``."""
    ma, mb = stats.median(a), stats.median(b)
    ratio = mb / ma if ma else float("inf")
    lower = metric.better == "lower"
    worse_by = mb - ma if lower else ma - mb
    if metric.exact:  # a deterministic count: any worsening is a regression
        return ("worse" if worse_by > 0 else "ok"), ratio
    if worse_by > metric.bound * ma:
        return "worse", ratio
    if max(stats.spread(a), stats.spread(b)) > metric.bound:
        every_b_better = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if every_b_better else "unresolved"), ratio
    return "ok", ratio


def cmd_compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    worse = 0
    print(f"base A = {path_a} (commit {a['provenance']['commit']}, seeds {a['provenance']['seeds']})")
    print(f"     B = {path_b} (commit {b['provenance']['commit']}, seeds {b['provenance']['seeds']})")
    print(f"  {'workload':16s} {'metric':14s} {'A median [q1, q3] n':>40s} {'B median [q1, q3] n':>40s} {'B/A':>7s} {'bound':>6s}  verdict")
    for w, ea in a["workloads"].items():
        eb = b["workloads"].get(w)
        if eb is None:
            continue
        for m in END_TO_END:
            sa, sb = ea["end_to_end"][m.name], eb["end_to_end"][m.name]
            v, ratio = verdict(m, sa["values"], sb["values"])
            worse += v == "worse"
            cell = lambda s: f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}"  # noqa: E731
            print(f"  {w:16s} {m.name:14s} {cell(sa):>40s} {cell(sb):>40s} {ratio:7.3f} {m.bound:6g}  {v}")
        fa, fb = sum(ea["failed"]), sum(eb["failed"])
        if fb > fa:
            worse += 1
            print(f"  {w:16s} {'failed':14s} {fa:>40d} {fb:>40d} {'':7s} {0:6g}  worse")
        for name, sa in ea.get("per_layer", {}).items():
            sb = eb.get("per_layer", {}).get(name)
            if sb and LAYER_BY_NAME[name].exact and set(sa["values"]) != set(sb["values"]):
                worse += 1  # a count that must repeat exactly, on any seed, did not
                print(f"  {w:16s} {name}: A {sorted(set(sa['values']))} != B {sorted(set(sb['values']))}  worse")
    print(f"{worse} worse")
    return 1 if worse else 0
