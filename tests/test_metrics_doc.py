"""``METRICS.md`` documents exactly the metrics and spans the system emits.

A serve session (every outcome: cold, prefix, plan, delta, stale,
rejected, error, then the ``stats`` op), a verified ``plan_many`` batch
and a replan run against a fresh registry, under ``obs.recording()``.
Every metric name they emit must match a row of ``METRICS.md`` of the
same kind, every span name they record a ``span`` row, and every row
must match a name they emit: nothing undocumented is emitted, and
nothing documented is dead.  Cache cells count as emitted when the
scenario moved them.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.obs.metrics as metrics
from repro import cachestats
from repro.obs import spans as obs
from repro.align.pipeline import planning_records, solve_prefix
from repro.batch import plan_many
from repro.lang import parse
from repro.lang.generate import generate_corpus
from repro.serve import PlanService, ServeRequest

ROOT = Path(__file__).parent.parent
CORPUS_DIR = ROOT / "benchmarks" / "perf" / "corpus"

SRC = """
real A(64), B(64)
A(1:63) = A(1:63) + B(2:64)
"""

_ROW = re.compile(r"^\|\s*(`[^|]*`)\s*\|\s*(counter|gauge|histogram|span)\s*\|")


def documented() -> dict[str, str]:
    """``{name pattern: kind}`` of every table row in ``METRICS.md``; a
    ``<placeholder>`` matches one dotted segment."""
    out = {}
    for line in (ROOT / "METRICS.md").read_text().splitlines():
        m = _ROW.match(line)
        if m is None:
            continue
        for name in re.findall(r"`([^`]+)`", m.group(1)):
            out[re.sub(r"<[^>]+>", "[A-Za-z0-9_]+", re.escape(name))] = m.group(2)
    return out


def _serve_session() -> None:
    with PlanService(max_pending=1) as svc:
        cold = svc.handle(ServeRequest("q", SRC, nprocs=4))
        assert cold.cached is None
        assert svc.handle(ServeRequest("q", SRC, nprocs=4)).cached == "plan"
        assert svc.handle(ServeRequest("q", SRC, nprocs=8)).cached == "prefix"
        edit = SRC.replace("+ B", "- B")
        base = cold.fingerprints["program"]
        delta = svc.handle(ServeRequest("e", edit, nprocs=4, base_fingerprint=base))
        assert delta.cached == "delta"
        stale = ServeRequest("s", SRC.replace("64", "66"), base_fingerprint="0" * 12)
        assert svc.handle(stale).cached is None
        assert svc.handle(ServeRequest("bad", "no so//rce here")).status == "error"
        assert svc.try_admit()  # the one admission slot is taken...
        assert svc.handle(ServeRequest("q", SRC)).status == "rejected"
        svc.release()
        svc.stats()


def _replan() -> None:
    options, _ = planning_records(4)
    base = solve_prefix(
        parse((CORPUS_DIR / "figure1.dp").read_text(), name="figure1"), options
    )
    edit = (CORPUS_DIR / "edits" / "figure1.stmt_insert.dp").read_text()
    _, report = solve_prefix(parse(edit, name="figure1"), options, base=base)
    assert report.fallback is not None  # a structural edit replans in full


@pytest.fixture
def emitted(monkeypatch) -> dict[str, str]:
    """``{name: kind}`` of every metric the scenario emits, and of every
    span it records (kind ``span``)."""
    reg = metrics.Registry()
    monkeypatch.setattr(metrics, "_REGISTRY", reg)
    # Earlier tests may have planned the same programs: with the kernel
    # memos warm, a cell behind them (align.moments) would not move.
    cachestats.clear_caches()
    before = cachestats.snapshot()
    with obs.recording() as rec:
        _serve_session()
        plan_many(generate_corpus(2, seed=0), nprocs=4, serial=True, verify=True)
        _replan()
    snap = reg.snapshot(include_cachestats=False)
    out = {name: kind[:-1] for kind in snap for name in snap[kind]}
    for cell in cachestats.delta(before):
        out[f"cache.{cell}.hits"] = out[f"cache.{cell}.misses"] = "counter"
    spans = rec.span_names()
    assert spans and not spans & out.keys()
    return out | dict.fromkeys(spans, "span")


def test_every_emitted_metric_is_documented_and_every_documented_one_emitted(
    emitted,
):
    docs = documented()
    assert len(docs) > 30  # the parser read the tables

    def row(name: str):
        return next((p for p in docs if re.fullmatch(p, name)), None)

    undocumented = sorted(n for n in emitted if row(n) is None)
    assert not undocumented, f"emitted but not in METRICS.md: {undocumented}"
    dead = sorted(
        p for p in docs if not any(re.fullmatch(p, n) for n in emitted)
    )
    assert not dead, f"in METRICS.md but never emitted: {dead}"
    wrong_kind = sorted(n for n, kind in emitted.items() if docs[row(n)] != kind)
    assert not wrong_kind, f"documented under another kind: {wrong_kind}"
