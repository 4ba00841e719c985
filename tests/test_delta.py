"""The delta engine: program diffs, artifact carry-over, fallbacks.

Covers :mod:`repro.passes.delta` end to end — stable statement keys and
the LCS program diff, the projection-driven carry strategies
(``identical``, ``machine_only``, ``carry_all``, ``carry_skeletons``,
``full``) and the first difference a fallback names, the projections'
value comparison against its SHA-1 digest reference, byte-identity of every
incremental plan against its from-scratch counterpart, the
mutation-isolation guarantee (a replan never touches base-context
artifacts), the machine-only fast path (zero alignment passes re-run, a
priced remap), and the serve-layer delta path (``base_fingerprint``
requests, ``serve.hits.delta``/``serve.delta_stale`` counters,
stale-base fallback, concurrent-client monotonicity).
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import re
import threading

import numpy as np
import pytest

from fingerprint_reference import reference_fingerprint
from repro import cachestats
from repro.adg import build_adg
from repro.adg.nodes import EmptyPayload, ReducePayload, SectionPayload, SourcePayload
from repro.align.pipeline import plan_context, plan_facts, solve_prefix
from repro.batch.engine import machine_label
from repro.lang import ast as A
from repro.lang.generate import generate_corpus
from repro.lang.parser import parse
from repro.obs.metrics import registry
from repro.passes import (
    AlignOptions,
    DeltaReport,
    MachineSpec,
    Pipeline,
    content_fingerprint,
    diff_programs,
    replan,
    statement_key,
)
from repro.passes.delta import _first_difference, _payload_key, _projection
from repro.serve import PlanDaemon, PlanService, ServeRequest


def _payload(name, label, ctx):
    """The serve payload of a solved context (``repro.serve.service``)."""
    return {"name": name, "machine": label, **plan_facts(ctx)}


BASE_SRC = """
real A(64), B(64), C(64)
A(1:63) = A(1:63) + B(2:64)
C(1:32) = sqrt(A(1:32))
"""

#: Single-statement edits of BASE_SRC, one per carry regime.
EDITS = {
    # label-only: '+' -> '-' — full alignment solution carries over
    "op_swap": (
        "carry_all",
        """
real A(64), B(64), C(64)
A(1:63) = A(1:63) - B(2:64)
C(1:32) = sqrt(A(1:32))
""",
    ),
    # intrinsic rename: also label-only
    "intrinsic_swap": (
        "carry_all",
        """
real A(64), B(64), C(64)
A(1:63) = A(1:63) + B(2:64)
C(1:32) = cos(A(1:32))
""",
    ),
    # extent-preserving window shift: offsets change, skeletons survive
    "section_shift": (
        "carry_skeletons",
        """
real A(64), B(64), C(64)
A(2:64) = A(2:64) + B(2:64)
C(1:32) = sqrt(A(1:32))
""",
    ),
    # a new statement: structural change, full replan
    "stmt_add": (
        "full",
        """
real A(64), B(64), C(64)
A(1:63) = A(1:63) + B(2:64)
C(1:32) = sqrt(A(1:32))
C(1:32) = sqrt(A(1:32))
""",
    ),
}

ALIGNMENT_PASSES = (
    "typecheck",
    "build-adg",
    "axis-stride",
    "replication-offsets",
    "assemble",
    "comm-profile",
)


def _plan(program, machine=MachineSpec.of(4), goal=("plan", "distribution")):
    ctx = plan_context(program)
    ctx.put("machine", machine)
    Pipeline().run(ctx, goal=goal)
    return ctx


def _blob(ctx, name="p"):
    return pickle.dumps(_payload(name, machine_label(4, None), ctx))


# -- statement keys and the program diff ---------------------------------------


class TestDiff:
    def test_statement_keys_stable_across_parses(self):
        a, b = parse(BASE_SRC), parse(BASE_SRC)
        assert [statement_key(s) for s in a.body] == [
            statement_key(s) for s in b.body
        ]

    def test_identical_programs_diff_empty(self):
        d = diff_programs(parse(BASE_SRC), parse(BASE_SRC))
        assert d.identical
        assert not d.changed_base and not d.changed_new
        assert len(d.matched) == len(parse(BASE_SRC).body)

    def test_single_edit_isolated(self):
        d = diff_programs(parse(BASE_SRC), parse(EDITS["op_swap"][1]))
        assert not d.identical
        assert d.changed_base == (0,)
        assert d.changed_new == (0,)
        assert (1, 1) in d.matched

    def test_insertion_matches_lcs(self):
        d = diff_programs(parse(BASE_SRC), parse(EDITS["stmt_add"][1]))
        # both original statements survive; only the duplicate is new
        assert d.changed_base == ()
        assert len(d.changed_new) == 1
        assert len(d.matched) == 2

    def test_decl_change_flagged(self):
        edited = BASE_SRC.replace("C(64)", "C(128)")
        d = diff_programs(parse(BASE_SRC), parse(edited))
        assert d.decls_changed
        assert not d.identical

    def test_a_statement_that_cannot_be_rendered_matches_nothing(self):
        base = parse(BASE_SRC)
        opaque = (1, object())  # a hand-built statement around an object
        new = dataclasses.replace(base, body=base.body + (opaque,))
        assert statement_key(opaque).startswith("!opaque-")
        d = diff_programs(base, new)
        assert d.changed_new == (2,) and d.changed_base == ()
        assert content_fingerprint(new) is None

    def test_summary_readable(self):
        d = diff_programs(parse(BASE_SRC), parse(EDITS["op_swap"][1]))
        assert "changed" in d.summary()


# -- carry strategies and byte-identity ----------------------------------------


class TestStrategies:
    @pytest.fixture(scope="class")
    def base_ctx(self):
        return _plan(parse(BASE_SRC))

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_strategy_and_byte_identity(self, base_ctx, edit):
        expected, src = EDITS[edit]
        program = parse(src)
        new_ctx, rpt = replan(
            base_ctx, program=program, goal=("plan", "distribution")
        )
        assert rpt.strategy == expected, (edit, rpt.strategy)
        scratch = _plan(program)
        assert _blob(new_ctx) == _blob(scratch), (
            f"{edit}: incremental plan differs from from-scratch"
        )

    def test_identical_program_is_identical_strategy(self, base_ctx):
        new_ctx, rpt = replan(
            base_ctx, program=parse(BASE_SRC), goal=("plan", "distribution")
        )
        assert rpt.strategy == "identical"
        assert _blob(new_ctx) == _blob(base_ctx)

    def test_carry_all_reuses_alignment_passes(self, base_ctx):
        new_ctx, rpt = replan(
            base_ctx,
            program=parse(EDITS["op_swap"][1]),
            goal=("plan", "distribution"),
        )
        for name in ("axis-stride", "replication-offsets", "assemble"):
            assert rpt.pass_status[name] == "reused (clean)", (
                name,
                rpt.pass_status,
            )
        assert rpt.pass_status["build-adg"] == "ran (dirty)"
        assert rpt.reused_entries > 0

    def test_carry_skeletons_reruns_offsets_only(self, base_ctx):
        new_ctx, rpt = replan(
            base_ctx,
            program=parse(EDITS["section_shift"][1]),
            goal=("plan", "distribution"),
        )
        assert rpt.pass_status["axis-stride"] == "reused (clean)"
        assert rpt.pass_status["replication-offsets"] == "ran (dirty)"

    def test_report_renders(self, base_ctx):
        _, rpt = replan(
            base_ctx,
            program=parse(EDITS["op_swap"][1]),
            goal=("plan", "distribution"),
        )
        text = rpt.render()
        assert "strategy=carry_all" in text
        assert "reused" in text and "recomputed" in text

    def test_counters_move(self, base_ctx):
        snap = cachestats.snapshot().get("passes.artifact_reuse", (0, 0))
        _, rpt = replan(
            base_ctx,
            program=parse(EDITS["op_swap"][1]),
            goal=("plan", "distribution"),
        )
        after = cachestats.snapshot()["passes.artifact_reuse"]
        assert rpt.reused_entries > 0
        assert after[0] >= snap[0] + rpt.reused_entries

    def test_explain_gains_delta_column(self, base_ctx):
        _, rpt = replan(
            base_ctx,
            program=parse(EDITS["op_swap"][1]),
            goal=("plan", "distribution"),
        )
        text = Pipeline().explain(goal=("plan", "distribution"), delta=rpt)
        assert "reused (clean)" in text
        assert "ran (dirty)" in text
        plain = Pipeline().explain(goal=("plan", "distribution"))
        assert "reused (clean)" not in plain


class TestMachineDelta:
    def test_distribute_suffix_only(self):
        base_ctx = _plan(parse(BASE_SRC))
        new_ctx, rpt = replan(base_ctx, machine=MachineSpec.of(8))
        assert rpt.strategy == "machine_only"
        reran = [
            ev["pass"]
            for ev in new_ctx.trace
            if ev.get("event") == "run" and ev.get("pass") in ALIGNMENT_PASSES
        ]
        assert reran == [], f"alignment passes re-ran: {reran}"
        assert new_ctx.get("machine").nprocs == 8
        assert base_ctx.get("machine").nprocs == 4

    @pytest.mark.parametrize(
        "machine",
        [
            MachineSpec.of(8),
            MachineSpec.of(topology="torus:2x4"),
            MachineSpec.of(2),
            MachineSpec.of(16),
            MachineSpec.of(topology="ring:8"),
            MachineSpec.of(topology="hypercube:16"),
            MachineSpec.of(topology="hier:(grid:2x2)/(grid:2x2)@4"),
        ],
        ids=[
            "4-to-8",
            "4-to-torus:2x4",
            "4-to-2",
            "4-to-16",
            "4-to-ring:8",
            "4-to-hypercube:16",
            "4-to-hier",
        ],
    )
    def test_remap_matches_a_per_cell_recount(self, machine):
        """The remap a machine-only replan reports, recounted one cell at
        a time: a cell moves if any axis changes owner, and its hops are
        the axis metrics' distances summed."""
        base_ctx = _plan(parse(BASE_SRC))
        new_ctx, rpt = replan(base_ctx, machine=machine)
        assert rpt.strategy == "machine_only"
        src = base_ctx.get("distribution").to_distribution()
        dst = new_ctx.get("distribution").to_distribution()
        topo = machine.topology_object()
        metrics = None if topo is None else topo.metrics((None,) * src.rank)
        window = base_ctx.get("profile").window
        hops = moved = 0
        for cell in itertools.product(*(range(lo, hi + 1) for lo, hi in window)):
            owners = [
                (int(a.map(np.asarray([c]))[0]), int(b.map(np.asarray([c]))[0]))
                for a, b, c in zip(src.axes, dst.axes, cell)
            ]
            moved += any(s != d for s, d in owners)
            hops += sum(
                abs(s - d) if metrics is None else metrics[t].distance(s, d)
                for t, (s, d) in enumerate(owners)
            )
        assert (rpt.remap.hops, rpt.remap.moved) == (hops, moved)
        if machine.nprocs == 8:
            assert moved > 0

    def test_matches_scratch_plan(self):
        base_ctx = _plan(parse(BASE_SRC))
        new_ctx, _ = replan(base_ctx, machine=MachineSpec.of(8))
        scratch = _plan(parse(BASE_SRC), machine=MachineSpec.of(8))
        a = _payload("p", machine_label(8, None), new_ctx)
        b = _payload("p", machine_label(8, None), scratch)
        assert pickle.dumps(a) == pickle.dumps(b)


# -- the carried distribution --------------------------------------------------

LABEL_CLASSES = ("op_swap", "intrinsic_swap")


def _distribution_facts(dist):
    return (dist.directive(), dist.cost, dist.searched, dist.exact)


def _ran(ctx, name):
    return [ev["event"] for ev in ctx.trace if ev["pass"] == name]


class TestCarriedDistribution:
    """``carry_all`` carries the distribution beside the profile it was
    computed from, when the machine is the base's — and only then."""

    def test_every_pinned_label_edit_carries_it(self, corpus_bases, corpus_edits):
        from repro.align import align_and_distribute

        label = [e for e in corpus_edits if e[1] in LABEL_CLASSES]
        assert len(label) == 17
        for kernel, edit_class, source in label:
            base = corpus_bases[kernel]
            art = base.artifact("distribution")
            program = parse(source, name=kernel)
            ctx, rpt = replan(base, program)
            where = f"{kernel}.{edit_class}"
            assert ctx.artifact("program").fingerprint == content_fingerprint(
                program
            )
            assert rpt.strategy == "carry_all" and rpt.fallback is None, where
            assert rpt.pass_status["distribute"] == "reused (clean)", where
            assert rpt.pass_status["comm-profile"] == "reused (clean)", where
            assert rpt.reused["distribution"] == 1
            assert "distribution" not in rpt.recomputed
            cold = align_and_distribute(parse(source, name=kernel), nprocs=16)
            assert _distribution_facts(
                ctx.get("distribution")
            ) == _distribution_facts(cold.distribution), where
            assert ctx.get("distribution") is art.value, where
            assert base.artifact("distribution") is art, where

    @pytest.mark.parametrize("edit", LABEL_CLASSES)
    def test_label_edit_with_another_machine_runs_distribute(self, edit):
        base = _plan(parse(BASE_SRC))
        program = parse(EDITS[edit][1])
        other = MachineSpec.of(topology="ring:8")
        ctx, rpt = replan(base, program=program, machine=other)
        assert rpt.strategy == "carry_all"
        assert rpt.pass_status["distribute"] == "ran (dirty)"
        assert _ran(ctx, "distribute") == ["run"]
        cold = _plan(program, machine=other)
        assert ctx.get("distribution") == cold.get("distribution")
        assert ctx.get("distribution") != base.get("distribution")

    def test_an_equal_machine_object_counts_as_the_base_machine(self):
        base = _plan(parse(BASE_SRC))
        ctx, rpt = replan(
            base, program=parse(EDITS["op_swap"][1]), machine=MachineSpec.of(4)
        )
        assert rpt.pass_status["distribute"] == "reused (clean)"
        assert ctx.get("distribution") is base.get("distribution")
        assert (
            ctx.artifact("machine").fingerprint
            == base.artifact("machine").fingerprint
        )

    def test_a_base_solved_to_the_profile_has_nothing_to_carry(self):
        base = plan_context(parse(BASE_SRC))
        Pipeline().run(base, goal=("plan", "profile"))
        program = parse(EDITS["op_swap"][1])
        ctx, rpt = replan(base, program=program, machine=MachineSpec.of(4))
        assert rpt.strategy == "carry_all"
        assert rpt.pass_status["comm-profile"] == "reused (clean)"
        assert rpt.pass_status["distribute"] == "ran (dirty)"
        assert ctx.get("distribution") == _plan(program).get("distribution")

    def test_a_later_machine_change_reruns_distribute(self):
        """The carried distribution is pinned to the (profile, machine)
        it was honoured under, like any supplied output."""
        base = _plan(parse(BASE_SRC))
        program = parse(EDITS["op_swap"][1])
        ctx, _ = replan(base, program=program)
        assert _ran(ctx, "distribute") == ["reuse"]
        carried = ctx.get("distribution")
        pipe = Pipeline()
        pipe.run(ctx, goal="distribution")
        assert "run" not in _ran(ctx, "distribute")  # still pinned, still valid
        other = MachineSpec.of(8)
        ctx.put("machine", other)
        pipe.run(ctx, goal="distribution")
        assert _ran(ctx, "distribute").count("run") == 1
        assert ctx.get("distribution") == _plan(program, other).get("distribution")
        assert ctx.get("distribution") != carried
        assert base.get("distribution") is carried

    def test_a_distribution_the_base_machine_has_outrun_is_not_carried(self):
        """``put("machine", ...)`` on the base with no run after it: the
        distribution there belongs to the machine before."""
        base = _plan(parse(BASE_SRC))
        other = MachineSpec.of(8)
        base.put("machine", other)
        program = parse(EDITS["op_swap"][1])
        ctx, rpt = replan(base, program=program)
        assert rpt.strategy == "carry_all"
        assert rpt.pass_status["distribute"] == "ran (dirty)"
        assert ctx.get("distribution") == _plan(program, other).get("distribution")

    def test_a_hand_put_distribution_is_not_carried(self):
        base = _plan(parse(BASE_SRC), goal=("plan", "profile"))
        base.put("distribution", _plan(parse(BASE_SRC)).get("distribution"))
        _, rpt = replan(base, program=parse(EDITS["op_swap"][1]))
        assert rpt.pass_status["distribute"] == "ran (dirty)"

    def test_a_carried_replan_is_a_base_that_carries(self):
        base = _plan(parse(BASE_SRC))
        first, _ = replan(base, program=parse(EDITS["op_swap"][1]))
        second, rpt = replan(first, program=parse(EDITS["intrinsic_swap"][1]))
        assert rpt.strategy == "carry_all"
        assert rpt.pass_status["distribute"] == "reused (clean)"
        assert second.get("distribution") is base.get("distribution")

    def test_structural_edits_never_carry_it(self, corpus_bases, corpus_edits):
        structural = [e for e in corpus_edits if e[1] not in LABEL_CLASSES]
        assert len(structural) == 31
        strategies = set()
        for kernel, edit_class, source in structural:
            ctx, rpt = replan(corpus_bases[kernel], parse(source, name=kernel))
            strategies.add(rpt.strategy)
            where = f"{kernel}.{edit_class}"
            assert rpt.pass_status["distribute"] == "ran (dirty)", where
            assert _ran(ctx, "distribute") == ["run"], where
            assert rpt.recomputed["distribution"] == 1
        assert strategies == {"carry_skeletons", "full"}


#: A ``fallback_detail``: one node, port or edge, then the field of it.
_DETAIL = re.compile(
    r"(node \d+ \([A-Z_]+ [^)]*\)?\): (kind|payload|port count)"
    r"|port n\d+\.\d+: (name|direction|shape|space)"
    r"|edge \d+ \(n\d+\.\d+ -> n\d+\.\d+\): "
    r"(endpoints|weight|space|control weight))"
)


class TestFallbackReason:
    """Why a replan fell to ``full`` — on the report, in ``render()`` and
    in ``passes.delta.fallback.<reason>`` — and where the projections it
    compared first differ (``fallback_detail``)."""

    def _replan(self, base, src=EDITS["stmt_add"][1]):
        reg = registry()
        names = [
            f"passes.delta.fallback.{r}"
            for r in ("projection_mismatch", "uncacheable", "no_base")
        ]
        before = {n: reg.counter(n).value for n in names}
        _, rpt = replan(base, program=parse(src))
        moved = {
            n.rsplit(".", 1)[1]: reg.counter(n).value - before[n] for n in names
        }
        return rpt, {r: n for r, n in moved.items() if n}

    def test_a_structural_edit_is_a_projection_mismatch(self):
        rpt, moved = self._replan(_plan(parse(BASE_SRC)))
        assert rpt.strategy == "full"
        assert rpt.fallback == "projection_mismatch"
        assert moved == {"projection_mismatch": 1}
        assert _DETAIL.fullmatch(rpt.fallback_detail), rpt.fallback_detail
        lines = rpt.render().splitlines()
        assert "  fallback: projection_mismatch" in lines
        assert f"  fallback detail: {rpt.fallback_detail}" in lines

    def test_a_constituent_that_cannot_be_hashed_is_uncacheable(self, monkeypatch):
        """A label edit that would carry, were its payloads addressable."""
        from repro.passes import delta

        monkeypatch.setattr(delta, "_payload_key", lambda payload, offsets: None)
        rpt, moved = self._replan(_plan(parse(BASE_SRC)), EDITS["op_swap"][1])
        assert rpt.strategy == "full"
        assert rpt.fallback == "uncacheable"
        assert rpt.fallback_detail is None
        assert moved == {"uncacheable": 1}

    def test_a_base_with_no_graph_or_solution_is_no_base(self):
        base = plan_context(parse(BASE_SRC))
        base.put("machine", MachineSpec.of(4))
        rpt, moved = self._replan(base, EDITS["op_swap"][1])
        assert rpt.strategy == "full" and rpt.fallback == "no_base"
        assert rpt.fallback_detail is None
        Pipeline().run(base, goal="adg")  # a graph, nothing solved on it
        rpt, more = self._replan(base, EDITS["op_swap"][1])
        assert rpt.strategy == "full" and rpt.fallback == "no_base"
        assert rpt.fallback_detail is None
        assert moved == more == {"no_base": 1}

    def test_no_other_rung_names_one(self):
        base = _plan(parse(BASE_SRC))
        reports = [
            replan(base, program=parse(EDITS[e][1]))[1]
            for e in ("op_swap", "section_shift")
        ]
        reports.append(replan(base, machine=MachineSpec.of(8))[1])
        reports.append(replan(base)[1])
        assert [r.strategy for r in reports] == [
            "carry_all",
            "carry_skeletons",
            "machine_only",
            "identical",
        ]
        assert all(r.fallback is None for r in reports)
        assert all("fallback:" not in r.render() for r in reports)
        # Only carry_skeletons says why the rung above it did not hold.
        details = [r.fallback_detail for r in reports]
        assert details[0] is None and details[2:] == [None, None]
        assert _DETAIL.fullmatch(details[1]) and details[1].endswith(": payload")
        assert [("fallback detail" in r.render()) for r in reports] == [
            False,
            True,
            False,
            False,
        ]

    @pytest.mark.parametrize(
        "edit, expected",
        [
            ("rank", "template_rank"),
            ("read_only", "read_only arrays"),
            ("node_kind", "node 0 ({kind} {label}): kind"),
            ("ports", "node 0 ({kind} {label}): port count"),
            ("port_name", "port {port}: name"),
            ("direction", "port {port}: direction"),
            ("nodes", "node count: {n} -> {n_less}"),
            ("endpoints", "edge {eid} ({tail} -> {head}): endpoints"),
            ("weight", "edge {eid} ({tail} -> {head}): weight"),
            ("control", "edge {eid} ({tail} -> {head}): control weight"),
            ("edges", "edge count: {e} -> {e_less}"),
        ],
    )
    def test_each_field_is_named(self, edit, expected):
        """``_first_difference`` on a projection with one field changed:
        the graph's elements first, counts after them, then the fields
        of the whole program."""
        program = parse(BASE_SRC)
        ctx = plan_context(program)
        Pipeline().run(ctx, goal="adg")
        adg = ctx.get("adg")
        base = _projection(program, adg, True)
        rank, ro, nodes, edges = base
        (nid, kind, payload, ports), *others = nodes
        (port, *rest), edge = ports, edges[0]
        new = {
            "rank": (rank + 1, ro, nodes, edges),
            "read_only": (rank, ro + ("Z",), nodes, edges),
            "node_kind": (rank, ro, ((nid, None, payload, ports), *others), edges),
            "ports": (rank, ro, ((nid, kind, payload, ports[:-1]), *others), edges),
            "port_name": (
                rank,
                ro,
                ((nid, kind, payload, ((port[0], "z", *port[2:]), *rest)), *others),
                edges,
            ),
            "direction": (
                rank,
                ro,
                (
                    (nid, kind, payload, ((*port[:2], not port[2], *port[3:]), *rest)),
                    *others,
                ),
                edges,
            ),
            "nodes": (rank, ro, nodes[:-1], edges),
            "endpoints": (rank, ro, nodes, ((*edge[:2], "n0.0", *edge[3:]), *edges[1:])),
            "weight": (rank, ro, nodes, ((*edge[:3], None, *edge[4:]), *edges[1:])),
            "control": (rank, ro, nodes, ((*edge[:5], str, "w"), *edges[1:])),
            "edges": (rank, ro, nodes, edges[:-1]),
        }[edit]
        node, e = adg.nodes[0], adg.edges[0]
        assert _first_difference(base, new, adg) == expected.format(
            kind=node.kind.name,
            label=node.label,
            port=port[0],
            n=len(nodes),
            n_less=len(nodes) - 1,
            eid=e.eid,
            tail=e.tail.key,
            head=e.head.key,
            e=len(edges),
            e_less=len(edges) - 1,
        )


# -- the projections ----------------------------------------------------------


def reference_payload_key(payload, offsets):
    """The payload key the projections were once hashed from: a string
    per payload, the first fingerprint scheme's digest
    (``reference_fingerprint``) for everything but the masked kinds,
    ``None`` for content that cannot be fingerprinted."""
    if isinstance(payload, EmptyPayload):
        return "empty"
    if isinstance(payload, ReducePayload):
        return f"reduce(dim={payload.dim})"
    if isinstance(payload, SectionPayload):
        subs = []
        for s in payload.subscripts:
            if offsets:
                fp = reference_fingerprint(s)
                if fp is None:
                    return None
                subs.append(fp)
            elif s.kind == "slice":
                fp = reference_fingerprint(s.step)
                if fp is None:
                    return None
                subs.append(f"slice:step={fp}")
            else:
                subs.append(s.kind)
        return f"section({payload.array};{','.join(subs)})"
    return reference_fingerprint(payload)


def reference_projection(program, adg, offsets):
    """The projection as a digest: every part rendered to a string, the
    parts joined and SHA-1 hashed.  Two projections were equal when
    their digests were."""
    from repro.align.replication import read_only_arrays

    parts = [
        f"rank={adg.template_rank}",
        "ro=" + ",".join(sorted(read_only_arrays(program))),
    ]
    for n in adg.nodes:
        pk = reference_payload_key(n.payload, offsets)
        if pk is None:
            return None
        parts.append(f"n{n.nid}:{n.kind.name}:{pk}")
        for p in n.ports:
            fsh = reference_fingerprint(p.shape)
            fsp = reference_fingerprint(p.space)
            if fsh is None or fsp is None:
                return None
            parts.append(f"p{p.key}:{p.name}:{int(p.is_output)}:{fsh}:{fsp}")
    for e in adg.edges:
        fw = reference_fingerprint(e.weight)
        fsp = reference_fingerprint(e.space)
        if fw is None or fsp is None:
            return None
        parts.append(
            f"e{e.eid}:{e.tail.key}>{e.head.key}:{fw}:{fsp}:"
            f"{e.control_weight!r}"
        )
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]


def _projection_pairs(corpus_kernels, corpus_edits):
    """``(where, a, b)``: each kernel against each of its pinned edits and
    against a second parse of itself, then adjacent generated programs."""
    kernels = {k: parse(src, name=k) for k, src in corpus_kernels.items()}
    for kernel, edit_class, source in corpus_edits:
        yield f"{kernel}.{edit_class}", kernels[kernel], parse(source, name=kernel)
    for name, source in corpus_kernels.items():
        yield f"{name}.reparse", kernels[name], parse(source, name=name)
    for count, seed in ((14, 0), (56, 5)):
        corpus = [sc.parse() for sc in generate_corpus(count, seed)]
        for i, (a, b) in enumerate(zip(corpus, corpus[1:])):
            yield f"generate_corpus({count}, {seed})[{i}]", a, b


def _unshared(adg):
    """``adg`` with a copy of its shape, space and weight at every port
    and edge: no two places hold one object."""
    for p in adg.ports():
        p.shape, p.space = copy.deepcopy(p.shape), copy.deepcopy(p.space)
    for e in adg.edges:
        e.weight, e.space = copy.deepcopy(e.weight), copy.deepcopy(e.space)
    return adg


def _held(adg):
    """(places, distinct objects) of the graph's shapes, spaces, weights."""
    held = [x for p in adg.ports() for x in (p.shape, p.space)]
    held += [x for e in adg.edges for x in (e.weight, e.space)]
    return len(held), len({id(x) for x in held})


class _IdentitySource(SourcePayload):
    """A source payload whose type keeps ``object``'s identity equality."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class TestProjection:
    """A projection is the tuple of what the planning phases read, and two
    are compared with ``==``: the answer the SHA-1 digest of the same
    parts gave, without depending on which objects the graphs share."""

    #: Matches among the pairs of ``_projection_pairs``, per projection.
    MATCHES = {True: 33, False: 40}

    def test_equality_agrees_with_the_reference_digest(
        self, corpus_kernels, corpus_edits
    ):
        pairs = list(_projection_pairs(corpus_kernels, corpus_edits))
        assert len(pairs) == 48 + 16 + 13 + 55
        # ``pairs`` keeps every program alive, so ids stay unique.
        adgs = {id(p): build_adg(p) for _, a, b in pairs for p in (a, b)}
        matches = {True: 0, False: 0}
        for where, a, b in pairs:
            ga, gb = adgs[id(a)], adgs[id(b)]
            for offsets in (True, False):
                by_value = _projection(a, ga, offsets) == _projection(b, gb, offsets)
                by_digest = reference_projection(
                    a, ga, offsets
                ) == reference_projection(b, gb, offsets)
                assert by_value == by_digest, (where, offsets)
                matches[offsets] += by_value
        assert matches == self.MATCHES

    def test_a_control_weight_compares_by_type_and_value(self):
        """``1`` and ``1.0`` are equal numbers but were different digests."""
        program = parse(BASE_SRC)
        a, b = build_adg(program), build_adg(program)
        b.edges[0].control_weight = 1
        assert type(a.edges[0].control_weight) is float
        for offsets in (True, False):
            assert _projection(program, a, offsets) != _projection(program, b, offsets)
            assert reference_projection(program, a, offsets) != reference_projection(
                program, b, offsets
            )

    def test_copied_values_still_carry_everything(self, corpus_kernels):
        """The edited program's graph holds its own copy of every shape,
        space and weight, where the base's graph shares them."""
        from repro.passes import align_passes

        source = corpus_kernels["jacobi2d"]
        base = _plan(parse(source, name="jacobi2d"))
        places, distinct = _held(base.get("adg"))
        assert distinct < places
        program = parse(source.replace("+", "-", 1), name="jacobi2d")
        build = align_passes.build_adg
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(align_passes, "build_adg", lambda *a: _unshared(build(*a)))
            ctx, rpt = replan(base, program)
        assert _held(ctx.get("adg")) == (places, places)
        assert rpt.strategy == "carry_all" and rpt.fallback is None
        for offsets in (True, False):
            assert _projection(program, ctx.get("adg"), offsets) == _projection(
                base.get("program"), base.get("adg"), offsets
            )

    def test_a_payload_that_is_not_a_value_is_uncacheable(self):
        from repro.passes import align_passes

        @dataclasses.dataclass
        class Mutable:  # value equality, but no hash: it could change
            array: str

        for payload in (object(), _IdentitySource("A"), Mutable("A")):
            for offsets in (True, False):
                assert _payload_key(payload, offsets) is None
        assert _payload_key(SourcePayload("A"), True) == SourcePayload("A")

        def identity_sources(*args):
            adg = build_adg(*args)
            for n in adg.nodes:
                if type(n.payload) is SourcePayload:
                    n.payload = _IdentitySource(**dataclasses.asdict(n.payload))
            return adg

        base = _plan(parse(BASE_SRC))
        program = parse(EDITS["op_swap"][1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(align_passes, "build_adg", identity_sources)
            ctx, rpt = replan(base, program)
        assert any(type(n.payload) is _IdentitySource for n in ctx.get("adg").nodes)
        assert rpt.strategy == "full" and rpt.fallback == "uncacheable"
        assert rpt.reused_entries == 0
        assert _blob(ctx) == _blob(_plan(program))


# -- the subproblem memo -------------------------------------------------------

#: Edge hits / lookups and LP hits / lookups of one replan of each pinned
#: structural edit against its cold-planned kernel, per edit class (the
#: soundness table of ``repro.passes.delta``); no hash seed moves it.
SOUNDNESS_TABLE = {
    "stmt_insert": {"edge": [254, 254], "offset_lp": [0, 14]},
    "stmt_delete": {"edge": [165, 182], "offset_lp": [0, 13]},
    "section_shift": {"edge": [150, 176], "offset_lp": [6, 13]},
    "iters_change": {"edge": [160, 220], "offset_lp": [0, 14]},
}

_TABLE_SCRIPT = """
import json, sys
from pathlib import Path
from repro.align import align_and_distribute
from repro.align.pipeline import plan_context
from repro.lang.parser import parse
from repro.passes import MachineSpec, Pipeline, replan

corpus = Path(sys.argv[1])
pipe, bases, table = Pipeline(), {}, {}
for path in sorted((corpus / "edits").glob("*.dp")):
    kernel, edit_class = path.stem.split(".")
    if edit_class in ("op_swap", "intrinsic_swap"):
        continue
    if kernel not in bases:
        ctx = plan_context(parse((corpus / (kernel + ".dp")).read_text(), name=kernel))
        ctx.put("machine", MachineSpec.of(16))
        bases[kernel] = pipe.run(ctx, goal=("plan", "distribution"))
    ctx, report = replan(bases[kernel], parse(path.read_text(), name=kernel))
    cold = align_and_distribute(parse(path.read_text(), name=kernel), nprocs=16)
    row = table.setdefault(edit_class, {"edge": [0, 0], "offset_lp": [0, 0], "same": True})
    for kind in ("edge", "offset_lp"):
        hits = report.memo_hits.get(kind, 0)
        row[kind][0] += hits
        row[kind][1] += hits + report.memo_misses.get(kind, 0)
    plan = ctx.get("plan")
    plan.distribution = ctx.get("distribution")
    row["same"] &= plan.report() == cold.report()
print(json.dumps(table))
"""


class TestSubproblemMemo:
    """A solved context remembers its subproblems; its forks and replans
    read them and leave them alone."""

    STRUCTURAL = ("section_shift", "stmt_add")

    @pytest.mark.parametrize("edit", STRUCTURAL)
    def test_replan_leaves_the_base_memo_and_profile_untouched(self, edit):
        base_ctx = _plan(parse(BASE_SRC))
        before = _artifact_snapshot(base_ctx)
        own = dict(base_ctx.memo._own)
        counts = (dict(base_ctx.memo.hits), dict(base_ctx.memo.misses))
        profile = base_ctx.get("profile")
        records = [(r, r.count) for r in profile.records]
        assert own, "a cold plan fills its memo"
        new_ctx, rpt = replan(base_ctx, program=parse(EDITS[edit][1]))
        assert sum(rpt.memo_hits.values()) > 0
        assert base_ctx.memo._own == own
        assert all(base_ctx.memo._own[k] is v for k, v in own.items())
        assert (base_ctx.memo.hits, base_ctx.memo.misses) == counts
        assert base_ctx.get("profile") is profile
        assert [(r, r.count) for r in profile.records] == records
        assert new_ctx.get("profile") is not profile
        assert not {id(r) for r in new_ctx.get("profile").records} & {
            id(r) for r in profile.records
        }
        assert _artifact_snapshot(base_ctx) == before

    @pytest.mark.parametrize("edit", STRUCTURAL)
    def test_the_same_edit_twice_hits_and_misses_the_same(self, edit):
        base_ctx = _plan(parse(BASE_SRC))
        reports = [
            replan(base_ctx, program=parse(EDITS[edit][1]))[1] for _ in range(2)
        ]
        assert reports[0].memo_misses, "a structural edit solves something new"
        assert reports[0].memo_hits == reports[1].memo_hits
        assert reports[0].memo_misses == reports[1].memo_misses

    def test_label_edits_and_machine_deltas_look_nothing_up(self):
        base_ctx = _plan(parse(BASE_SRC))
        for kw in (
            {"program": parse(EDITS["op_swap"][1])},
            {"machine": MachineSpec.of(8)},
        ):
            _, rpt = replan(base_ctx, **kw)
            assert rpt.memo_hits == rpt.memo_misses == {}

    def test_fork_reads_its_parent_and_cannot_add_to_it(self):
        base_ctx = _plan(parse(BASE_SRC))
        own = dict(base_ctx.memo._own)
        key = next(iter(own))
        child = base_ctx.fork()
        assert child.memo.get(key) is own[key]
        assert child.memo.hits == {key[0]: 1}
        child.memo[("edge", "new")] = "value"
        assert child.memo.get(("edge", "new")) == "value"
        assert base_ctx.memo.get(("edge", "new")) is None
        assert base_ctx.memo._own == own
        assert len(child.memo) == 1
        # a grandchild still sees both layers
        grandchild = child.fork()
        assert grandchild.memo.get(key) is own[key]
        assert grandchild.memo.get(("edge", "new")) == "value"

    def test_an_unpickled_context_replans_with_an_empty_memo(self):
        base_ctx = _plan(parse(BASE_SRC))
        blob = pickle.dumps(base_ctx)
        assert b"offset_lp" not in blob and b"_delta_base_memo" not in blob
        thawed = pickle.loads(blob)
        assert len(thawed.memo) == 0 and thawed._delta_base_memo == {}
        program = parse(EDITS["section_shift"][1])
        new_ctx, rpt = replan(thawed, program=program)
        assert rpt.strategy == "carry_skeletons"
        assert _blob(new_ctx) == _blob(_plan(program))
        # the memo adds nothing to what a cache would store
        replan(base_ctx, program=program)
        assert len(pickle.dumps(base_ctx)) == len(blob)

    def test_a_context_pickled_before_the_memo_existed_gets_one(self):
        base_ctx = _plan(parse(BASE_SRC))
        state = base_ctx.__getstate__()
        assert "memo" not in state
        old = object.__new__(type(base_ctx))
        old.__setstate__(state)
        assert len(old.memo) == 0
        _, rpt = replan(old, program=parse(EDITS["stmt_add"][1]))
        assert rpt.strategy == "full"

    def test_report_and_counters_say_what_the_memo_did(self):
        base_ctx = _plan(parse(BASE_SRC))
        reg = registry()
        names = [
            f"passes.delta.memo_{o}.{k}"
            for o in ("hits", "misses")
            for k in ("edge", "offset_lp")
        ]
        before = {n: reg.counter(n).value for n in names}
        _, rpt = replan(base_ctx, program=parse(EDITS["stmt_add"][1]))
        assert set(rpt.memo_hits) | set(rpt.memo_misses) == {"edge", "offset_lp"}
        for name in names:
            outcome, kind = name.split(".")[2:]
            moved = getattr(rpt, outcome).get(kind, 0)
            assert reg.counter(name).value == before[name] + moved
        line = next(l for l in rpt.render().splitlines() if "memo:" in l)
        assert f"edge={rpt.memo_hits['edge']} hit/" in line
        assert "offset_lp=" in line
        # a pass that ran is dirty, whatever its memo did
        assert rpt.pass_status["comm-profile"] == "ran (dirty)"
        assert rpt.pass_status["replication-offsets"] == "ran (dirty)"

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_events_sum_to_no_more_than_the_replan(self, edit):
        """The ``delta`` event times the diff and the carry, not the
        graph prefix: typecheck and build-adg report their own time."""
        base_ctx = _plan(parse(BASE_SRC))
        new_ctx, rpt = replan(base_ctx, program=parse(EDITS[edit][1]))
        assert [ev["pass"] for ev in new_ctx.trace[:3]] == [
            "typecheck",
            "build-adg",
            "delta",
        ]
        assert sum(ev["seconds"] for ev in new_ctx.trace) <= rpt.seconds

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_soundness_table_on_the_pinned_corpus(self, hashseed):
        """Run in a fresh process under two hash seeds: LP rows and
        columns are written in an order no string hash decides, so the
        vertex, the alignments the edge keys are made of and the table
        are the same under both."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).parent.parent
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = str(root / "src")
        done = subprocess.run(
            [sys.executable, "-c", _TABLE_SCRIPT, str(root / "benchmarks" / "perf" / "corpus")],
            env=env, capture_output=True, text=True, timeout=300,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        table = json.loads(done.stdout)
        assert set(table) == set(SOUNDNESS_TABLE)
        for edit_class, row in table.items():
            assert row.pop("same"), f"{edit_class}: replan != cold plan"
            assert row == SOUNDNESS_TABLE[edit_class], edit_class


# -- satellite: mutation isolation ---------------------------------------------


def _artifact_snapshot(ctx):
    """(version, fingerprint, stable content repr) of every base artifact
    that a replan could conceivably reach through a shared reference."""
    snap = {}
    for key in ctx.keys():
        art = ctx.artifact(key)
        value = art.value
        content = reference_fingerprint(value)
        if content is None and isinstance(value, dict):
            content = repr(sorted((k, repr(v)) for k, v in value.items()))
        snap[key] = (art.version, art.fingerprint, content)
    return snap


class TestMutationIsolation:
    """A replan must never write through to the base context: forked
    artifact stores, COW profiles, copied solver maps."""

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_program_delta_leaves_base_untouched(self, edit):
        base_ctx = _plan(parse(BASE_SRC))
        before = _artifact_snapshot(base_ctx)
        before_trace = len(base_ctx.trace)
        replan(
            base_ctx,
            program=parse(EDITS[edit][1]),
            goal=("plan", "distribution"),
        )
        assert _artifact_snapshot(base_ctx) == before
        assert len(base_ctx.trace) == before_trace

    def test_machine_delta_leaves_base_untouched(self):
        base_ctx = _plan(parse(BASE_SRC))
        before = _artifact_snapshot(base_ctx)
        profile = base_ctx.get("profile")
        tensors = profile.front
        records = [(r, r.count) for r in profile.records]
        assert tensors is not None, "the base's comm-profile compiled it"
        new_ctx, _ = replan(base_ctx, machine=MachineSpec.of(8))
        # the distribution search prices on the replan's COW clone: its
        # own record list, the base's compiled front read, not rebuilt
        assert base_ctx.get("profile") is profile
        assert profile.front is tensors
        assert [(r, r.count) for r in profile.records] == records
        clone = new_ctx.get("profile")
        assert clone is not profile and clone.records is not profile.records
        assert clone.front is tensors
        assert _artifact_snapshot(base_ctx) == before

    def test_carried_maps_are_copies(self):
        base_ctx = _plan(parse(BASE_SRC))
        new_ctx, rpt = replan(
            base_ctx,
            program=parse(EDITS["op_swap"][1]),
            goal=("plan", "distribution"),
        )
        assert rpt.strategy == "carry_all"
        for key in ("alignments", "replicated"):
            assert new_ctx.get(key) is not base_ctx.get(key)
            assert new_ctx.get(key) == base_ctx.get(key)
        assert (
            new_ctx.get("offsets").offsets is not base_ctx.get("offsets").offsets
        )
        assert (
            new_ctx.get("skeletons").skeletons
            is not base_ctx.get("skeletons").skeletons
        )


# -- the kernel's incremental entry point --------------------------------------


class TestReplanContext:
    def test_replan_context_round_trip(self):
        base_ctx = _plan(parse(BASE_SRC), goal=("plan", "profile"))
        edited = parse(EDITS["op_swap"][1], name="edited")
        ctx, rpt = solve_prefix(edited, AlignOptions.of(), base=base_ctx)
        assert isinstance(rpt, DeltaReport)
        assert rpt.strategy == "carry_all"
        assert ctx.has("plan") and ctx.has("profile")

    def test_align_kw_mismatch_rejected(self):
        base_ctx = _plan(parse(BASE_SRC), goal=("plan", "profile"))
        edited = parse(EDITS["op_swap"][1], name="edited")
        with pytest.raises(ValueError, match="align"):
            solve_prefix(edited, AlignOptions.of(mobile=False), base=base_ctx)

    def test_batch_report_exposes_artifact_reuse(self):
        """A replanning batch task's cachestats delta carries the
        passes.artifact_reuse entry, and the report renders it
        alongside the kernel cache counters."""
        from repro.batch.engine import BatchReport, PlanResult

        base_ctx = _plan(parse(BASE_SRC), goal=("plan", "profile"))
        before = cachestats.snapshot()
        solve_prefix(
            parse(EDITS["op_swap"][1], name="e"), AlignOptions.of(), base=base_ctx
        )
        inc = cachestats.delta(before)
        assert "passes.artifact_reuse" in inc
        report = BatchReport(
            results=[PlanResult(name="e", ok=True, seconds=0.01, cache=inc)],
            seconds=0.01,
            jobs=1,
            mode="serial",
        )
        assert "passes.artifact_reuse" in report.render()


# -- the serve layer -----------------------------------------------------------


EDIT_SRC = EDITS["op_swap"][1]


class TestServeDelta:
    def test_delta_hit_and_byte_identity(self):
        reg = registry()
        with PlanService() as svc:
            first = svc.handle(ServeRequest("q", BASE_SRC, nprocs=4))
            assert first.ok and first.cached is None
            base_fp = first.fingerprints["program"]
            before = reg.counter("serve.hits.delta").value
            delta = svc.handle(
                ServeRequest(
                    "q2", EDIT_SRC, nprocs=4, base_fingerprint=base_fp
                )
            )
            assert delta.ok and delta.cached == "delta"
            assert reg.counter("serve.hits.delta").value == before + 1
        with PlanService() as svc:
            cold = svc.handle(ServeRequest("q2", EDIT_SRC, nprocs=4))
        assert pickle.dumps(delta.plan) == pickle.dumps(cold.plan)

    def test_delta_chains_across_edits(self):
        # each response's program fingerprint is a valid base for the
        # next edit: the delta path re-stores the new prefix
        with PlanService() as svc:
            r0 = svc.handle(ServeRequest("q", BASE_SRC, nprocs=4))
            r1 = svc.handle(
                ServeRequest(
                    "q",
                    EDIT_SRC,
                    nprocs=4,
                    base_fingerprint=r0.fingerprints["program"],
                )
            )
            assert r1.cached == "delta"
            r2 = svc.handle(
                ServeRequest(
                    "q",
                    EDITS["section_shift"][1],
                    nprocs=4,
                    base_fingerprint=r1.fingerprints["program"],
                )
            )
            assert r2.cached == "delta"

    def test_stale_base_falls_back_cold(self):
        reg = registry()
        with PlanService() as svc:
            before = reg.counter("serve.delta_stale").value
            resp = svc.handle(
                ServeRequest(
                    "q", BASE_SRC, nprocs=4, base_fingerprint="0" * 12
                )
            )
            assert resp.ok and resp.cached is None
            assert reg.counter("serve.delta_stale").value == before + 1

    def test_exact_hit_wins_over_delta(self):
        # if the edited program itself is already cached, the plan hit
        # answers and base_fingerprint is ignored
        with PlanService() as svc:
            svc.handle(ServeRequest("q", BASE_SRC, nprocs=4))
            resp = svc.handle(
                ServeRequest(
                    "q", BASE_SRC, nprocs=4, base_fingerprint="0" * 12
                )
            )
            assert resp.cached == "plan"

    def test_concurrent_delta_clients_monotone_counter(self):
        reg = registry()
        with PlanService() as svc:
            first = svc.handle(ServeRequest("q", BASE_SRC, nprocs=4))
            base_fp = first.fingerprints["program"]
            before = reg.counter("serve.hits.delta").value
            results = []

            def worker():
                results.append(
                    svc.handle(
                        ServeRequest(
                            "q",
                            EDIT_SRC,
                            nprocs=4,
                            base_fingerprint=base_fp,
                        )
                    )
                )

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r.ok for r in results)
            hits = reg.counter("serve.hits.delta").value - before
            deltas = sum(1 for r in results if r.cached == "delta")
            assert deltas == hits
            assert deltas >= 1
            blobs = {pickle.dumps(r.plan) for r in results}
            assert len(blobs) == 1  # every client saw the same plan

    def test_daemon_delta_op(self):
        async def drive():
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)

            async def ask(msg):
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            cold = await ask(
                {"op": "plan", "name": "q", "source": BASE_SRC, "nprocs": 4}
            )
            delta = await ask(
                {
                    "op": "plan",
                    "name": "q2",
                    "source": EDIT_SRC,
                    "nprocs": 4,
                    "base_fingerprint": cold["fingerprints"]["program"],
                }
            )
            stats = await ask({"op": "stats"})
            writer.close()
            daemon.shutdown()
            await server
            return cold, delta, stats

        cold, delta, stats = asyncio.run(drive())
        assert cold["status"] == "ok" and "fingerprints" in cold
        assert delta["status"] == "ok" and delta["cached"] == "delta"
        assert stats["stats"]["counters"]["serve.hits.delta"] >= 1
        assert "artifact_reuse" in stats["stats"]
