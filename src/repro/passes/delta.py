"""Delta-driven incremental re-planning.

A single-statement edit to a program changes its content fingerprint,
so the serve cache (:mod:`repro.serve`) treats the edited program as a
cold miss and the pipeline re-runs every pass from typecheck through
distribute — even though most of the ADG and almost every alignment
artifact are untouched.  :func:`replan` closes that gap: it re-enters
the pipeline against a fresh context with unchanged artifacts carried
over from a prior ``PlanContext`` — skeletons, replication labels,
mobile offsets, per-port alignments and the comm profile, and the
distribution when the machine has not changed either — so only the
genuinely invalidated suffix recomputes.  A machine-only delta (same
program, new nprocs/topology) forks the base context and re-runs
exactly the distribution suffix, pricing the move of the base's
occupied window from the old distribution to the new one
(:func:`repro.distrib.remap.remap_cost`).

Carry-over is decided by comparing projections and nothing else.  A
projection of the ``(program, adg)`` pair is the tuple of the values a
planning phase reads, and two of them are compared with ``==``:

* the **alignment projection** keeps everything the alignment phases
  read — node kinds, payload content, port shapes/spaces, edge weights
  — and masks what they do not (node display labels, the reduce
  operator, which only executors read);
* the **skeleton projection** additionally masks section offsets
  (slice lower bounds, scalar subscript values): axis/stride labeling
  is offset-blind, so an offset-only edit preserves the skeleton
  solution even though the mobile-offset LP must re-run.

Equal alignment projections mean the alignment solvers would see
equal inputs, value for value, so every alignment artifact of the
base is *the* answer for the edited program and carrying it over is
exact, not approximate — the differential harness asserts the
resulting plans match from-scratch plans on every edit pair.  A
projection holds the graph's own shapes, spaces and weights, which
compare by value: two graphs match whether or not they hold their
equal values in one shared object.

The paper's second phase is a function of what the first leaves
behind: the comm profile is computed from the alignments (equation 1's
sum over edges) and the distribution from the profile and the machine,
nothing else.  So ``carry_all`` carries the base's profile, and when
the new machine is the base's, the distribution beside the profile it
was computed from — the search would replay the base's own memo to
arrive at the base's own answer.  The pipeline honours it as a supplied
output pinned to the new context's ``(profile, machine)``: a later
``put("machine", ...)`` re-runs ``distribute``.  A label edit *with* a
machine change, or against a base solved only to ``profile`` (the
serve prefix), runs ``distribute`` as any other replan does.

Only the planner inputs are content-addressed
(:data:`~repro.passes.core.INPUT_KEYS`); a replan hands ``put`` the
program and machine fingerprints it already derived.  A carried
artifact, like any derived one, has no fingerprint: the projections
decided it is the answer, and the pipeline honours it as a supplied
output pinned to the new context's inputs, so nothing compares its
content.

A node payload that is not a value — its type keeps ``object``'s
identity equality, or is unhashable — degrades the projection to
``None``: equal content could not be told from a shared object, so
carry-over is disabled rather than risking a stale reuse.  The report
says so (``fallback``: ``uncacheable``, beside ``projection_mismatch``
for an edit that is structural and ``no_base`` for a base with no
solved graph to compare with).  Two projections that differ are walked
to the first element where they do, and the report names it
(``fallback_detail``): the node, port or edge and the field of it the
edit changed — on a ``full`` replan the skeleton projection's
difference, on ``carry_skeletons`` the alignment projection's, which
says why ``carry_all`` did not hold.

:func:`diff_programs` is a statement-level diff of two programs
(an LCS pairing of their statements' content fingerprints).  A replan
does not run it: what it says decides nothing the projections do not.

Below the whole-program projections sits the **subproblem memo**
(:class:`~repro.passes.core.SubproblemMemo`).  A replan's context reads
the memo its base filled while it was solved, so a pass that does have
to run answers from the base whatever separates out of the edited
program.  The memo decides nothing: strategies, ``reused`` /
``recomputed`` and ``pass_status`` are what they would be without it.
What separates was measured, not assumed — one replan of each of the 31
pinned structural edits of ``benchmarks/perf/corpus`` against its
cold-planned kernel, the same under every hash seed
(``tests/test_delta.py`` pins the table under two):

=============  =================  ===============
edit class     edge hits/lookups  LP hits/lookups
=============  =================  ===============
stmt_insert    254 / 254           0 / 14
stmt_delete    165 / 182           0 / 13
section_shift  150 / 176           6 / 13
iters_change   160 / 220           0 / 14
=============  =================  ===============

An LP lookup is one LP built: an axis that a later fixpoint round
leaves with the costed edges it was solved with reuses its answer
without building or looking up anything.

* **Holds: one ADG edge's share of the comm profile.**  The cost is a
  sum over edges (equation 1), and an edge's moves are a function of
  (tail alignment, head alignment, space, tail shape) alone —
  :func:`repro.distrib.costmodel.build_profile`.
* **Holds: one template axis's numeric offset LP.**  The grid metric is
  separable (Sections 2.3, 4.1), so an edit confined to one axis leaves
  the other axis's LP number for number what the base solved; an equal
  solver input has an equal vertex —
  :meth:`repro.solvers.lp.LP.digest`.
* **Does not hold: axis/stride labeling.**  Candidate propagation and
  the labeling DP couple every port of a connected component; there is
  no per-statement piece whose answer is independent of the rest.
* **Does not hold: the offset LP across connected components.**  The
  LP has ties, and HiGHS picks the vertex by column order; solving a
  component on its own moves the vertex, hence the plan.
* **Does not hold: the replication min-cut.**  A key that determines
  the cut — the labeled graph and its capacities — costs what the cut
  costs.

Every per-pass reuse/recompute shows up in the context trace, the
``passes.artifact_reuse`` cachestats cell, and the obs counter
``passes.delta.fallback.<reason>``; memo outcomes
are on the report (``memo_hits`` / ``memo_misses``) and in the counters
``passes.delta.memo_hits.<kind>`` / ``passes.delta.memo_misses.<kind>``
(kinds ``edge``, ``offset_lp``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .. import cachestats
from ..adg.graph import ADG
from ..adg.nodes import ReducePayload, SectionPayload
from ..lang import ast as A
from ..obs import spans as obs
from ..obs.metrics import registry
from .core import Pipeline, PlanContext, content_fingerprint

__all__ = [
    "DeltaReport",
    "ProgramDiff",
    "diff_programs",
    "replan",
    "statement_key",
]


# -- statement keys and program diffing -----------------------------------


def statement_key(stmt: Any) -> str:
    """A stable content key for one top-level statement.

    The statement analogue of ``Port.key``: two parses of the same
    source text yield the same key, across processes.  Every AST node
    is a frozen dataclass, so :func:`content_fingerprint` covers the
    whole subtree; the fallback for a statement that cannot be rendered
    (one built by hand around an opaque value) never matches anything,
    which degrades the diff to "changed" — conservative, never stale.
    """
    fp = content_fingerprint(stmt)
    return f"!opaque-{id(stmt):x}" if fp is None else fp


@dataclass(frozen=True)
class ProgramDiff:
    """A statement-level diff between a base and a new program.

    ``matched`` pairs base/new body indices whose statement keys agree
    (a longest common subsequence, so a statement moving past an edit
    still matches); ``changed_base`` / ``changed_new`` are the
    unmatched indices on each side.  ``decls_changed`` flags any
    difference in the declaration list, which can invalidate every
    port (shapes, readonly-ness) and is never treated as local.
    """

    base_keys: tuple[str, ...]
    new_keys: tuple[str, ...]
    matched: tuple[tuple[int, int], ...]
    changed_base: tuple[int, ...]
    changed_new: tuple[int, ...]
    decls_changed: bool

    @property
    def identical(self) -> bool:
        return (
            not self.changed_base
            and not self.changed_new
            and not self.decls_changed
        )

    def summary(self) -> str:
        if self.identical:
            return "identical"
        parts = [
            f"{len(self.changed_new)}/{len(self.new_keys)} statements changed"
        ]
        dropped = len(self.changed_base) - len(self.changed_new)
        if dropped > 0:
            parts.append(f"{dropped} removed")
        elif dropped < 0:
            parts.append(f"{-dropped} added")
        if self.decls_changed:
            parts.append("decls changed")
        return ", ".join(parts)


def _lcs_pairs(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int]]:
    """Longest-common-subsequence index pairs of two key sequences.

    Bodies are tens of statements at most, so the quadratic DP is
    plenty; ties break toward the earliest match, keeping the pairing
    deterministic.
    """
    n, m = len(a), len(b)
    L = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            L[i][j] = (
                L[i + 1][j + 1] + 1
                if a[i] == b[j]
                else max(L[i + 1][j], L[i][j + 1])
            )
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif L[i + 1][j] >= L[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def diff_programs(base: A.Program, new: A.Program) -> ProgramDiff:
    """Statement-level diff of two programs (see :class:`ProgramDiff`)."""
    base_keys = tuple(map(statement_key, base.body))
    new_keys = tuple(map(statement_key, new.body))
    matched = tuple(_lcs_pairs(base_keys, new_keys))
    mb = {i for i, _ in matched}
    mn = {j for _, j in matched}
    new_decls = content_fingerprint(new.decls)
    return ProgramDiff(
        base_keys=base_keys,
        new_keys=new_keys,
        matched=matched,
        changed_base=tuple(i for i in range(len(base_keys)) if i not in mb),
        changed_new=tuple(j for j in range(len(new_keys)) if j not in mn),
        decls_changed=new_decls is None
        or content_fingerprint(base.decls) != new_decls,
    )


# -- projections ----------------------------------------------------------


def _payload_key(payload: Any, offsets: bool) -> Any:
    """The value of one node payload under the given projection.

    ``offsets=True`` is the alignment projection, ``offsets=False`` the
    skeleton projection (section lower bounds and scalar subscript
    values masked — they only ever reach the offset terms of the
    alignment constraints, never the axis/stride labels).  The reduce
    operator is masked in both: no planning phase reads it (the reduced
    axis is released regardless of whether it folds with ``sum`` or
    ``maxval``).  Returns ``None`` for a payload that is not a value
    (identity equality, or unhashable), which poisons the whole
    projection.
    """
    if isinstance(payload, ReducePayload):
        return ("reduce", payload.dim)
    if isinstance(payload, SectionPayload):
        if offsets:
            return ("section", payload.array, payload.subscripts)
        return (
            "section",
            payload.array,
            tuple(
                # "index" / "full": offset-only content
                ("slice", s.step) if s.kind == "slice" else s.kind
                for s in payload.subscripts
            ),
        )
    # Transformer values (loop bounds/steps) stay in both
    # projections: steps reach strides, and entry/exit values feed
    # the iteration spaces the stride DP weighs candidates by.
    tp = type(payload)
    if tp.__eq__ is object.__eq__ or tp.__hash__ is None:
        return None
    return payload


def _projection(program: A.Program, adg: ADG, offsets: bool) -> Optional[tuple]:
    """The values the planning phases read, as one tuple.

    Node display labels and provenance tags are excluded (cosmetic), so
    e.g. swapping ``+`` for ``-`` — which only changes an ELEMENTWISE
    node's label — leaves the alignment projection equal and the whole
    alignment solution carries over.  Shapes, spaces and weights are
    held as they are: equal values compare equal whether or not the
    two graphs share them.  ``None`` when a payload is not a value:
    carry-over is then disabled.
    """
    from ..align.replication import read_only_arrays

    nodes = []
    for n in adg.nodes:
        pk = _payload_key(n.payload, offsets)
        if pk is None:
            return None
        nodes.append(
            (
                n.nid,
                n.kind,
                pk,
                tuple(
                    [(p.key, p.name, p.is_output, p.shape, p.space) for p in n.ports]
                ),
            )
        )
    edges = tuple(
        [
            (
                e.eid,  # the offset solvers key an edge's terms by it
                e.tail.key,
                e.head.key,
                e.weight,
                e.space,
                type(e.control_weight),
                e.control_weight,
            )
            for e in adg.edges
        ]
    )
    return (
        adg.template_rank,
        tuple(sorted(read_only_arrays(program))),
        tuple(nodes),
        edges,
    )


#: The fields of a node, a port and an edge entry of a projection,
#: named, with the index (or slice) of the entry that holds each.
_NODE_FIELDS = (("kind", 1), ("payload", 2))
_PORT_FIELDS = (("name", 1), ("direction", 2), ("shape", 3), ("space", 4))
_EDGE_FIELDS = (
    ("endpoints", slice(1, 3)),
    ("weight", 3),
    ("space", 4),
    ("control weight", slice(5, 7)),
)


def _differing(fields: tuple, base: tuple, new: tuple) -> Optional[str]:
    """The name of the first of ``fields`` where two entries differ."""
    return next((name for name, at in fields if base[at] != new[at]), None)


def _first_difference(base: tuple, new: tuple, adg: ADG) -> Optional[str]:
    """The first element where two unequal projections differ, and the
    field of it that does, named after ``adg`` — the new program's graph.

    Nodes come before edges, a node's own fields before its ports', a
    count only where every element both sides hold is equal, and the
    program-wide fields only where the graphs are: an element says where
    in the program the edit is.
    """
    (base_rank, base_ro, base_nodes, base_edges) = base
    (new_rank, new_ro, new_nodes, new_edges) = new
    for node, b, n in zip(adg.nodes, base_nodes, new_nodes):
        where = f"node {node.nid} ({node.kind.name} {node.label})"
        field_ = _differing(_NODE_FIELDS, b, n)
        if field_ is None and len(b[3]) != len(n[3]):
            field_ = "port count"
        if field_ is not None:
            return f"{where}: {field_}"
        for bp, np_ in zip(b[3], n[3]):
            field_ = _differing(_PORT_FIELDS, bp, np_)
            if field_ is not None:
                return f"port {np_[0]}: {field_}"
    if len(base_nodes) != len(new_nodes):
        return f"node count: {len(base_nodes)} -> {len(new_nodes)}"
    for edge, b, n in zip(adg.edges, base_edges, new_edges):
        field_ = _differing(_EDGE_FIELDS, b, n)
        if field_ is not None:
            return f"edge {edge.eid} ({edge.tail.key} -> {edge.head.key}): {field_}"
    if len(base_edges) != len(new_edges):
        return f"edge count: {len(base_edges)} -> {len(new_edges)}"
    if base_rank != new_rank:
        return "template_rank"
    if base_ro != new_ro:
        return "read_only arrays"
    return None


def _once_per_base(base: PlanContext, objs: tuple, compute) -> Any:
    """``compute()``, once per base context and identity of ``objs``.

    A base context is replanned against many times (one edit stream =
    one base, dozens of edits) and its program/graph never change, so
    what a replan derives from the base side alone — its two
    projections — is computed once.  The memo keeps references to
    the keyed objects: identity keys stay valid exactly as long as the
    objects they name are alive.
    """
    key = tuple(map(id, objs))
    hit = base._delta_base_memo.get(key)
    if hit is None:
        hit = base._delta_base_memo[key] = (objs, compute())
    return hit[1]


# -- copy-on-write carriers -----------------------------------------------


def _cow_profile(profile):
    """A copy-on-write clone of a comm profile.

    The record list — the one container a consumer could mutate — is
    copied; the records themselves and the compiled pricing front are
    immutable-in-practice and shared.  The base context's profile is
    never touched by a replan.
    """
    return dataclasses.replace(profile, records=list(profile.records))


#: Per-port (or per-record) entry counts of the carriable artifacts, for
#: the reused/recomputed accounting.  Scalars count as one entry.
def _entries(key: str, value: Any) -> int:
    try:
        if key == "skeletons":
            return len(value.skeletons)
        if key == "replication":
            return len(value.labels)
        if key == "offsets":
            return len(value.offsets)
        if key == "profile":
            return len(value.records)
        if key in ("alignments", "replicated"):
            return len(value)
    except (AttributeError, TypeError):
        return 1
    return 1


# -- the report -----------------------------------------------------------


@dataclass
class DeltaReport:
    """What one incremental replan did and why.

    ``strategy`` is one of ``identical`` (nothing changed — pure
    reuse), ``machine_only`` (distribute suffix re-ran against a new
    machine), ``carry_all`` (every alignment artifact and the comm
    profile carried; the distribution too when the machine is the
    base's, otherwise ``distribute`` ran), ``carry_skeletons``
    (axis/stride carried, offsets onward re-ran), ``full`` (nothing
    carriable).  ``reused`` / ``recomputed`` count artifact *entries*
    (per-port map sizes), the same granularity
    ``passes.artifact_reuse`` accumulates.

    ``fallback`` says why a replan is ``full`` and is ``None`` on every
    other rung: ``projection_mismatch`` (the edit changes what the
    alignment phases read), ``uncacheable`` (a constituent of a
    projection is not content-addressable, so nothing could be
    compared), ``no_base`` (the base holds no graph, or no solution on
    it, to compare with).

    ``fallback_detail`` names the first element where the last pair of
    projections compared differ, and the field of it that does: on
    ``full`` the skeleton projection's (``node 5 (SECTION ...):
    payload``), on ``carry_skeletons`` the alignment projection's, which
    is why ``carry_all`` did not hold.  It is ``None`` on every other
    rung and beside ``uncacheable`` and ``no_base``, where no two
    projections were compared.

    ``memo_hits`` / ``memo_misses`` count, per kind of subproblem
    (``edge``, ``offset_lp``), the lookups the passes that *ran* made in
    the context's :class:`~repro.passes.core.SubproblemMemo`.  They say
    how much of a recomputed pass was answered by the base; they change
    nothing about ``reused`` / ``recomputed`` / ``pass_status``.
    """

    strategy: str
    reused: dict[str, int] = field(default_factory=dict)
    recomputed: dict[str, int] = field(default_factory=dict)
    pass_status: dict[str, str] = field(default_factory=dict)
    memo_hits: dict[str, int] = field(default_factory=dict)
    memo_misses: dict[str, int] = field(default_factory=dict)
    fallback: Optional[str] = None  # why ``full``; None on every other rung
    fallback_detail: Optional[str] = None  # where the projections differ
    remap: Any = None  # CostVector for machine deltas with a base distribution
    seconds: float = 0.0

    @property
    def reused_entries(self) -> int:
        return sum(self.reused.values())

    @property
    def recomputed_entries(self) -> int:
        return sum(self.recomputed.values())

    def render(self) -> str:
        lines = [f"delta replan: strategy={self.strategy}"]
        if self.fallback is not None:
            lines.append(f"  fallback: {self.fallback}")
        if self.fallback_detail is not None:
            lines.append(f"  fallback detail: {self.fallback_detail}")

        def _fmt(counts: dict[str, int]) -> str:
            return (
                ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                or "none"
            )

        lines.append(
            f"  reused:     {_fmt(self.reused)} "
            f"({self.reused_entries} entries)"
        )
        lines.append(
            f"  recomputed: {_fmt(self.recomputed)} "
            f"({self.recomputed_entries} entries)"
        )
        kinds = sorted(set(self.memo_hits) | set(self.memo_misses))
        lines.append(
            "  memo:       "
            + (
                ", ".join(
                    f"{k}={self.memo_hits.get(k, 0)} hit/"
                    f"{self.memo_misses.get(k, 0)} miss"
                    for k in kinds
                )
                or "none"
            )
        )
        for name, status in self.pass_status.items():
            lines.append(f"  pass {name:<22s} {status}")
        if self.remap is not None:
            lines.append(
                f"  remap: hops={self.remap.hops} moved={self.remap.moved}"
            )
        lines.append(f"  seconds: {self.seconds:.4f}")
        return "\n".join(lines)


# -- the replan driver ----------------------------------------------------

#: Machine-independent alignment artifacts carried by the full-alignment
#: strategy, in pipeline order (assemble's whole input/output surface).
_ALIGN_ARTIFACTS = (
    "skeletons",
    "replication",
    "offsets",
    "replicated",
    "replication_rounds",
    "alignments",
    "total_cost",
)


def _carry_skeletons(ctx: PlanContext, base: PlanContext, new_adg: ADG):
    """Carry the axis/stride solution onto ``ctx``, rebound to the new
    graph's ports (key sets are identical whenever a projection
    matched).  Containers are copied so later passes can never reach
    back into the base context's maps."""
    skel = base.get("skeletons")
    rebound = dataclasses.replace(
        skel,
        skeletons=dict(skel.skeletons),
        port_by_key={p.key: p for p in new_adg.ports()},
    )
    ctx.put("skeletons", rebound)
    return rebound


def _distribution_current(base: PlanContext) -> bool:
    """Whether the base's ``distribution`` is the one its ledger says
    was computed from (or honoured under) the inputs it holds now — not
    one left behind by a ``put`` of the profile or the machine that no
    pipeline run has followed."""
    last = base._ledger.get("distribute")
    return (
        last is not None
        and base.has("distribution")
        and all(
            base.has(key) and base.artifact(key).version == version
            for key, (version, _) in last.items()
        )
    )


def _carry_alignment(
    ctx: PlanContext, base: PlanContext, new_adg: ADG, machine_same: bool
) -> None:
    """Carry every alignment artifact (copy-on-write) and hand-assemble
    the plan object against the new program/graph — exactly what
    :class:`~repro.passes.align_passes.AssemblePass` would build, with
    the solver outputs supplied instead of recomputed.

    The comm profile is a function of the alignments and the
    distribution a function of the profile and the machine, so the
    profile goes along, and with it — when the machine is the base's
    (``machine_same``) — the distribution computed from it."""
    from ..align.pipeline import AlignmentPlan

    skel = _carry_skeletons(ctx, base, new_adg)
    rep = base.get("replication")
    rep = dataclasses.replace(
        rep, labels=dict(rep.labels), cut_value=dict(rep.cut_value)
    )
    replicated = set(base.get("replicated"))
    off = base.get("offsets")
    off = dataclasses.replace(
        off,
        offsets=dict(off.offsets),
        lp_stats=list(off.lp_stats),
        priced_on=(new_adg, skel.skeletons, replicated),
    )
    alignments = dict(base.get("alignments"))
    rounds = base.get("replication_rounds")
    cost = base.get("total_cost")

    ctx.put("replication", rep)
    ctx.put("offsets", off)
    ctx.put("replicated", replicated)
    ctx.put("replication_rounds", rounds)
    ctx.put("alignments", alignments)
    ctx.put("total_cost", cost)
    ctx.put(
        "plan",
        AlignmentPlan(
            ctx.get("program"),
            new_adg,
            skel,
            rep,
            off,
            alignments,
            cost,
            replication_rounds=rounds,
        ),
    )
    if base.has("profile"):
        ctx.put("profile", _cow_profile(base.get("profile")))
    if machine_same and _distribution_current(base):
        # Frozen, so shared as is.  The pipeline honours it as a supplied
        # output and pins it to the (profile, machine) of ``ctx``: a
        # later ``put("machine", ...)`` re-runs distribute.
        ctx.put("distribution", base.get("distribution"))


def _account(ctx: PlanContext, report: DeltaReport) -> None:
    """Fill reused/recomputed counts and per-pass status from the trace.

    A pass can appear twice (the diff stage runs the graph prefix, then
    the goal run emits a reuse for it); a pass that ran *at all* during
    this replan counts as recomputed — reuse events merely confirm its
    outputs stayed valid."""
    last: dict[str, dict] = {}
    ran_once: set[str] = set()
    for ev in ctx.trace:
        if ev.get("pass") == "delta" or "provides" not in ev:
            continue
        last[ev["pass"]] = ev
        if ev["event"] == "run":
            ran_once.add(ev["pass"])
    for name, ev in last.items():
        ran = name in ran_once
        report.pass_status[name] = "ran (dirty)" if ran else "reused (clean)"
        bucket = report.recomputed if ran else report.reused
        for key in ev["provides"]:
            bucket[key] = _entries(key, ctx.get(key)) if ctx.has(key) else 1


def replan(
    base: PlanContext,
    program: Optional[A.Program] = None,
    machine=None,
    goal: str | Sequence[str] = ("plan", "distribution"),
) -> tuple[PlanContext, DeltaReport]:
    """Incrementally re-plan against a solved base context.

    ``program`` is the edited program (``None``: unchanged) and
    ``machine`` the new target (``None``: the base's, if any).  Returns
    a *new* context solved to ``goal`` plus the :class:`DeltaReport`;
    the base context and its artifacts are never mutated — everything
    carried over is copied at the container level first.

    The incremental result is exact: artifacts carry over only when the
    relevant projections are equal, i.e. when a from-scratch solve
    would have received equal inputs.
    """
    t0 = time.perf_counter()
    pipeline = Pipeline()
    base_art = base.artifact("program")
    base_program = base_art.value
    new_program = program if program is not None else base_program
    # Each program is fingerprinted once: the base's when it was stored,
    # the new one here (and handed on to ``put`` below).
    base_fp = base_art.fingerprint
    new_fp = (
        base_fp
        if new_program is base_program
        else content_fingerprint(new_program)
    )
    program_same = new_program is base_program or (
        base_fp is not None and base_fp == new_fp
    )
    # Likewise each machine: the base's when it was stored, a new one here.
    machine_art = base.artifact("machine") if base.has("machine") else None
    base_machine = machine_art.value if machine_art is not None else None
    new_machine = machine if machine is not None else base_machine
    base_mfp = machine_art.fingerprint if machine_art is not None else None
    new_mfp = (
        base_mfp
        if new_machine is base_machine
        else content_fingerprint(new_machine)
    )
    machine_same = base_machine is not None and (
        new_machine is base_machine
        or (base_mfp is not None and base_mfp == new_mfp)
    )

    with obs.span("passes.delta", kind="delta"):
        report = DeltaReport(strategy="full")
        graph_seconds = 0.0
        if program_same:
            ctx = base.fork()
            if machine_same or new_machine is None:
                report.strategy = "identical"
            else:
                report.strategy = "machine_only"
                # COW the mutable suffix inputs the fork would share: the
                # base is a shared cache entry, the profile's record list
                # is its one mutable container, and callers routinely
                # write ``plan.distribution``; neither may reach the base.
                if base.has("profile"):
                    ctx.put("profile", _cow_profile(base.get("profile")))
                if base.has("plan"):
                    ctx.put("plan", dataclasses.replace(base.get("plan")))
                ctx.put("machine", new_machine, fingerprint=new_mfp)
        else:
            ctx = PlanContext()
            # The passes that run read what the base solved; what they
            # solve themselves stays on the new context.
            ctx.memo = base.memo.child()
            ctx.put("program", new_program, fingerprint=new_fp)
            options = base.artifact("align_options")
            ctx.put("align_options", options.value, fingerprint=options.fingerprint)
            if new_machine is not None:
                ctx.put("machine", new_machine, fingerprint=new_mfp)
            # The graph prefix always re-runs: the projections are read
            # off the new program's own ADG, which no base graph can
            # stand in for.  Its passes report their own seconds, so the
            # delta event leaves them out.
            t_graph = time.perf_counter()
            pipeline.run(ctx, goal="adg")
            graph_seconds = time.perf_counter() - t_graph
            new_adg = ctx.get("adg")
            base_adg = base.get("adg") if base.has("adg") else None
            # Until a projection has been compared; then what the last
            # comparison found.
            fallback, detail = "no_base", None

            def _match(offsets: bool) -> bool:
                nonlocal fallback, detail
                new_proj = _projection(new_program, new_adg, offsets)
                base_proj = None if new_proj is None else _once_per_base(
                    base,
                    (base_program, base_adg, offsets),
                    lambda: _projection(base_program, base_adg, offsets),
                )
                if base_proj is None:
                    fallback = "uncacheable"
                    return False
                fallback = "projection_mismatch"
                if new_proj == base_proj:
                    return True
                detail = _first_difference(base_proj, new_proj, new_adg)
                return False

            if base_adg is not None:
                if all(base.has(k) for k in _ALIGN_ARTIFACTS) and _match(
                    offsets=True
                ):
                    report.strategy = "carry_all"
                    _carry_alignment(ctx, base, new_adg, machine_same)
                elif base.has("skeletons") and _match(offsets=False):
                    report.strategy = "carry_skeletons"
                    _carry_skeletons(ctx, base, new_adg)
            if report.strategy == "full":
                report.fallback = fallback
            report.fallback_detail = detail

        ctx.trace.append(
            {
                "pass": "delta",
                "event": "diff",
                "seconds": time.perf_counter() - t0 - graph_seconds,
                "strategy": report.strategy,
            }
        )
        pipeline.run(ctx, goal=goal)

        if (
            report.strategy == "machine_only"
            and base.has("distribution")
            and ctx.has("distribution")
            and base.has("profile")
        ):
            from ..distrib.remap import remap_cost

            report.remap = remap_cost(
                base.get("profile").window,
                base.get("distribution").to_distribution(),
                ctx.get("distribution").to_distribution(),
                topology=new_machine.topology_object()
                if new_machine is not None
                else None,
            )

        _account(ctx, report)
        report.memo_hits = dict(ctx.memo.hits)
        report.memo_misses = dict(ctx.memo.misses)
        report.seconds = time.perf_counter() - t0
        reg = registry()
        if report.fallback is not None:
            reg.counter(f"passes.delta.fallback.{report.fallback}").inc()
        for outcome, counts in (
            ("memo_hits", report.memo_hits),
            ("memo_misses", report.memo_misses),
        ):
            for kind, n in counts.items():
                reg.counter(f"passes.delta.{outcome}.{kind}").inc(n)
        cachestats.record_hit("passes.artifact_reuse", report.reused_entries)
        cachestats.record_miss(
            "passes.artifact_reuse", report.recomputed_entries
        )
        obs.annotate(
            strategy=report.strategy,
            fallback_detail=report.fallback_detail,
            reused=report.reused_entries,
            recomputed=report.recomputed_entries,
        )
    return ctx, report
