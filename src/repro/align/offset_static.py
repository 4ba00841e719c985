"""Offset alignment by rounded linear programming (Sections 4.1–4.3).

This module is the LP core shared by every mobile-offset algorithm: given

* a *skeleton* (axis/stride labels from Section 3),
* a per-axis replication labeling (Section 5; replicated endpoints drop
  their edges from the offset problem), and
* a *partition plan* assigning each edge a list of subranges of its
  iteration space (Section 4.2),

it builds one LP per template axis — separability of the grid metric
(Section 2.3) makes the axes independent — with

* one offset-coefficient variable per (port, LIV-slot),
* the node relations of :mod:`repro.align.constraints` as equalities,
* one bound variable per (edge, subrange) with the paper's two
  inequalities ``theta >= +-(span-sum)``, where the span-sum is the
  moment form ``delta a . M_R`` evaluated in closed form,

solves it, and *rounds*: each node derives integer offsets for all its
ports from its root port, so node constraints hold exactly after
rounding (the relation graph is per-node, hence acyclic).

For a program with no loops every edge space is scalar, the plan is the
trivial single subrange, and this reduces to the static offset LP of the
authors' POPL'93 paper, as Section 4 notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, MutableMapping

from ..adg.graph import ADG, ADGEdge, Port
from ..adg.nodes import NodeKind
from ..ir.affine import AffineForm, Scalar
from ..ir.itspace import IterationSpace
from ..ir.symbols import LIV
from ..solvers.lp import LPModel
from .constraints import EntryEval, EqualShift, LoopBack, OffsetRelation, node_offset_relations
from .cost import cached_moments
from .position import Alignment

# (Port.key, template_axis) -> whether that port/axis is replicated.
ReplicationLabels = set[tuple[str, int]]

# edge -> subranges covering its iteration space.
PartitionPlan = dict[int, list[IterationSpace]]  # keyed by edge eid

# Result: (Port.key, axis) -> offset AffineForm with integer coefficients.
OffsetMap = dict[tuple[str, int], AffineForm]

Slot = tuple[str, object]  # (Port.key, None | LIV)


@dataclass
class OffsetLPStats:
    axis: int
    num_vars: int
    num_constraints: int
    objective: float


@dataclass
class OffsetSolution:
    offsets: OffsetMap
    stats: list[OffsetLPStats] = field(default_factory=list)

    def of(self, p: Port, axis: int) -> AffineForm:
        return self.offsets[(p.key, axis)]


def edge_is_offset_costed(
    e: ADGEdge,
    skeleton: Mapping[str, Alignment],
    axis: int,
    replicated: ReplicationLabels,
) -> bool:
    """Whether an edge contributes grid-metric offset cost on ``axis``.

    Edges whose ports disagree on axis/stride already pay the discrete
    general-communication cost (Section 3); edges with a replicated
    endpoint on this axis are discarded per Section 5.1.
    """
    if skeleton[e.tail.key] != skeleton[e.head.key]:
        return False
    if (e.tail.key, axis) in replicated or (e.head.key, axis) in replicated:
        return False
    return True


def lp_value(x: float) -> Scalar:
    """An LP value as the planner's exact scalar: the nearest fraction
    with a denominator up to ``10**9``, an ``int`` when that is integral."""
    if x.is_integer():
        return int(x)
    f = Fraction(x).limit_denominator(10**9)
    return f.numerator if f.denominator == 1 else f


class EdgeTerms:
    """The moment terms of one plan's edge rows, for every template axis.

    An edge's rows are the same sums ``delta a . M_R`` on every axis
    (Section 4.2); only the replicated set decides, per axis, whether
    the edge takes part.  ``edges`` are the edges whose two ends share a
    skeleton, in edge order; :meth:`of` gives one edge's
    ``(subrange index, [(liv, float moment), ...])`` per non-empty
    subrange, the constant slot (``None``) first, and looks its moments
    up once, on the first axis that costs the edge.
    """

    def __init__(
        self, adg: ADG, skeleton: Mapping[str, Alignment], plan: PartitionPlan
    ) -> None:
        self.plan = plan
        self.edges = [
            e for e in adg.edges if skeleton[e.tail.key] == skeleton[e.head.key]
        ]
        self._terms: dict[int, list[tuple[int, list[tuple[LIV | None, float]]]]] = {}

    def of(self, e: ADGEdge) -> list[tuple[int, list[tuple[LIV | None, float]]]]:
        terms = self._terms.get(e.eid)
        if terms is None:
            terms = self._terms[e.eid] = []
            for j, sub in enumerate(self.plan.get(e.eid, [e.space])):
                if sub.is_empty():
                    continue
                moments = cached_moments(sub, e.weight)
                row = [(None, float(moments.m0))]
                row.extend((liv, float(m)) for liv, m in moments.m1.items())
                terms.append((j, row))
        return terms


class OffsetLP:
    """One offset LP instance for a fixed template axis and plan.

    ``relations`` are this axis's node relations, in node order;
    ``terms`` are the plan's edge terms, shared by the axes of one
    :func:`solve_offsets`.  Columns are integers and each row is written
    once, as a column list and a value list (:meth:`LPModel.add_row`):
    zero coefficients are left out and a slot with a zero moment still
    gets its column.  The LP has ties, and HiGHS returns a different
    optimal vertex under a column permutation, so the order in which
    :meth:`_col` first sees each slot is part of the result: relation
    rows in node order, then edge rows tail before head with ``theta``
    after its slots, then the pins, then the static rows.
    """

    def __init__(
        self,
        adg: ADG,
        skeleton: Mapping[str, Alignment],
        axis: int,
        relations: list[OffsetRelation],
        plan: PartitionPlan,
        replicated: ReplicationLabels | None = None,
        static: bool = False,
        memo: MutableMapping | None = None,
        terms: EdgeTerms | None = None,
    ) -> None:
        self.adg = adg
        self.skeleton = skeleton
        self.axis = axis
        self.relations = relations
        self.plan = plan
        self.replicated = replicated or set()
        self.static = static
        # ("offset_lp", digest of a built LP) -> (exact value by column,
        # objective)
        self.memo = {} if memo is None else memo
        self.terms = EdgeTerms(adg, skeleton, plan) if terms is None else terms
        self.model = LPModel(f"offset-axis{axis}")
        self.cols: dict[Slot, int] = {}

    # -- columns ----------------------------------------------------------------

    def _col(self, p: Port, liv: LIV | None) -> int:
        key = (p.key, liv)
        c = self.cols.get(key)
        if c is None:
            name = f"p{p.key}_{'c' if liv is None else liv.name}"
            c = self.cols[key] = self.model.add_column(name)
        return c

    # -- constraints --------------------------------------------------------------

    def _emit_relation(self, rel: OffsetRelation) -> None:
        # A relation joins two distinct ports of one node, so the slots
        # of one row are distinct columns.
        col, add_row = self._col, self.model.add_row
        if isinstance(rel, EqualShift):
            p, q, shift = rel.p, rel.q, rel.shift
            add_row([col(q, None), col(p, None)], [1.0, -1.0], "==", float(shift.const))
            q_livs, p_livs = q.space.livs, p.space.livs
            for liv in sorted({*q_livs, *p_livs, *shift.livs()}):
                cols, vals = [], []
                if liv in q_livs:
                    cols.append(col(q, liv))
                    vals.append(1.0)
                if liv in p_livs:
                    cols.append(col(p, liv))
                    vals.append(-1.0)
                add_row(cols, vals, "==", float(shift.coeff(liv)))
        elif isinstance(rel, EntryEval):
            p, q, k, v = rel.p, rel.q, rel.liv, rel.value
            # a_q0 + v*a_qk = a_p0
            cols, vals = [col(q, None)], [1.0]
            qk = col(q, k)
            if v:
                cols.append(qk)
                vals.append(float(v))
            cols.append(col(p, None))
            vals.append(-1.0)
            add_row(cols, vals, "==", 0.0)
            for liv in p.space.livs:
                add_row([col(q, liv), col(p, liv)], [1.0, -1.0], "==", 0.0)
        elif isinstance(rel, LoopBack):
            p, q, k, s = rel.p, rel.q, rel.liv, rel.step
            # f_q(k) = f_p(k - s):  a_q0 = a_p0 - s*a_pk ;  a_qk = a_pk
            cols, vals = [col(q, None), col(p, None)], [1.0, -1.0]
            pk = col(p, k)
            if s:
                cols.append(pk)
                vals.append(float(s))
            add_row(cols, vals, "==", 0.0)
            for liv in q.space.livs:
                add_row([col(q, liv), col(p, liv)], [1.0, -1.0], "==", 0.0)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown relation {rel!r}")

    # -- assembly ----------------------------------------------------------------------

    def build(self) -> None:
        model, col = self.model, self._col
        add_row = model.add_row
        for rel in self.relations:
            self._emit_relation(rel)
        axis, replicated = self.axis, self.replicated
        obj_cols: list[int] = []
        obj_vals: list[float] = []
        for e in self.terms.edges:
            tail, head = e.tail, e.head
            if (tail.key, axis) in replicated or (head.key, axis) in replicated:
                continue
            weight = float(e.control_weight)
            for j, terms in self.terms.of(e):
                # theta >= |inner|, inner = sum of moment * (tail slot -
                # head slot), as the two rows theta +- inner >= 0.  An
                # edge runs from an output port to an input port, so
                # each slot gets exactly one coefficient.
                plus: list[int] = []
                minus: list[int] = []
                vals: list[float] = []
                for liv, m in terms:
                    t, h = col(tail, liv), col(head, liv)
                    if m != 0.0:
                        plus += (t, h)
                        minus += (h, t)
                        vals += (m, -m)
                theta = model.add_column(f"th_e{e.eid}_{j}", lower=0)
                plus.append(theta)
                minus.append(theta)
                vals.append(1.0)
                add_row(plus, vals, ">=", 0.0)
                add_row(minus, vals, ">=", 0.0)
                if weight != 0.0:
                    obj_cols.append(theta)
                    obj_vals.append(weight)
        # Pin one port per weakly-connected component to anchor translation.
        self._pin_components()
        if self.static:
            # Static-alignment baseline: loop-carried values (merge nodes)
            # and program variables (sources/sinks) may not move with the
            # LIVs.  Derived section positions stay mobile, as they must.
            for n in self.adg.nodes:
                if n.kind in (NodeKind.SOURCE, NodeKind.MERGE, NodeKind.SINK):
                    for p in n.ports:
                        for liv in p.space.livs:
                            add_row([col(p, liv)], [1.0], "==", 0.0)
        model.set_objective(obj_cols, obj_vals)

    def _pin_components(self) -> None:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for rel in self.relations:
            union(rel.p.key, rel.q.key)
        for e in self.adg.edges:
            union(e.tail.key, e.head.key)
        pinned: set[str] = set()
        for p in self.adg.ports():
            root = find(p.key)
            if root not in pinned:
                pinned.add(root)
                self.model.add_row([self._col(p, None)], [1.0], "==", 0.0)

    # -- solve + round -----------------------------------------------------------------

    def solve(self) -> tuple[dict[Slot, Scalar], OffsetLPStats]:
        self.build()
        # An equal digest is an equal solver input, hence the same vertex.
        key = ("offset_lp", self.model.digest())
        solved = self.memo.get(key)
        if solved is None:
            sol = self.model.solve()
            if sol.status != "optimal":
                raise RuntimeError(f"offset LP axis {self.axis}: {sol.status}")
            solved = self.memo[key] = (tuple(map(lp_value, sol.x)), sol.objective)
        x, objective = solved
        values = {slot: x[c] for slot, c in self.cols.items()}
        stats = OffsetLPStats(
            self.axis,
            self.model.num_vars,
            self.model.num_constraints,
            objective,
        )
        return values, stats

    # -- rounding: per-node derivation keeps constraints exact ---------------------------

    def rounded_offsets(self, values: dict[Slot, Scalar]) -> OffsetMap:
        out: OffsetMap = {}

        def lp_slot(p: Port, liv: LIV | None) -> Scalar:
            return values.get((p.key, liv), 0)

        def rounded_port(p: Port) -> AffineForm:
            coeffs = {liv: round(lp_slot(p, liv)) for liv in p.space.livs}
            return AffineForm(round(lp_slot(p, None)), coeffs)

        # A relation joins two ports of one node: group them by node once.
        by_node: dict[int, list[OffsetRelation]] = {}
        for rel in self.relations:
            if rel.p.node is rel.q.node:
                by_node.setdefault(id(rel.p.node), []).append(rel)
        for n in self.adg.nodes:
            assigned: dict[str, AffineForm] = {}
            # Repeatedly derive ports from already-assigned neighbours.
            pending = list(by_node.get(id(n), ()))
            progress = True
            while progress:
                progress = False
                for rel in list(pending):
                    pa, qa = assigned.get(rel.p.key), assigned.get(rel.q.key)
                    if pa is not None and qa is not None:
                        pending.remove(rel)
                        continue
                    if pa is None and qa is None:
                        continue
                    if pa is not None:
                        assigned[rel.q.key] = self._derive_q(rel, pa, rel.q, values)
                    else:
                        assigned[rel.p.key] = self._derive_p(rel, qa, rel.p, values)
                    pending.remove(rel)
                    progress = True
                if not progress and pending:
                    # Seed a root among ports of remaining relations.
                    for rel in pending:
                        if rel.p.key not in assigned:
                            assigned[rel.p.key] = rounded_port(rel.p)
                            progress = True
                            break
                        if rel.q.key not in assigned:
                            assigned[rel.q.key] = rounded_port(rel.q)
                            progress = True
                            break
            for p in n.ports:
                if p.key not in assigned:
                    assigned[p.key] = rounded_port(p)
                out[(p.key, self.axis)] = assigned[p.key]
        return out

    def _derive_q(
        self, rel: OffsetRelation, pa: AffineForm, q: Port, values
    ) -> AffineForm:
        if isinstance(rel, EqualShift):
            return pa + rel.shift
        if isinstance(rel, EntryEval):
            k, v = rel.liv, rel.value
            ak = round(values.get((q.key, k), 0))
            coeffs = {liv: pa.coeff(liv) for liv in rel.p.space.livs}
            coeffs[k] = ak
            const = pa.const - v * ak
            return AffineForm(const, coeffs)
        if isinstance(rel, LoopBack):
            k, s = rel.liv, rel.step
            return pa.shift_liv(k, -s)
        raise TypeError(rel)

    def _derive_p(
        self, rel: OffsetRelation, qa: AffineForm, p: Port, values
    ) -> AffineForm:
        if isinstance(rel, EqualShift):
            return qa - rel.shift
        if isinstance(rel, EntryEval):
            k, v = rel.liv, rel.value
            # a_p0 = a_q0 + v * a_qk ; p copies q's other slots
            coeffs = {liv: qa.coeff(liv) for liv in p.space.livs}
            const = qa.const + v * qa.coeff(k)
            return AffineForm(const, coeffs)
        if isinstance(rel, LoopBack):
            k, s = rel.liv, rel.step
            return qa.shift_liv(k, s)
        raise TypeError(rel)


def solve_offsets(
    adg: ADG,
    skeleton: Mapping[str, Alignment],
    plan: PartitionPlan,
    replicated: ReplicationLabels | None = None,
    static: bool = False,
    memo: MutableMapping | None = None,
) -> OffsetSolution:
    """Solve the offset problem for every template axis under one plan.

    The node relations and the edge terms are compiled once and shared
    by the axes.  ``memo`` keeps each distinct numeric LP's solution
    (:meth:`LPModel.digest`); pass one mapping to many calls and an LP
    any of them has solved is not solved again.
    """
    offsets: OffsetMap = {}
    stats = []
    skel = dict(skeleton)
    relations = [rel for n in adg.nodes for rel in node_offset_relations(n, skel)]
    terms = EdgeTerms(adg, skel, plan)
    for axis in range(adg.template_rank):
        on_axis = [rel for rel in relations if rel.axis == axis]
        lp = OffsetLP(
            adg, skeleton, axis, on_axis, plan, replicated, static, memo, terms
        )
        values, st = lp.solve()
        offsets.update(lp.rounded_offsets(values))
        stats.append(st)
    return OffsetSolution(offsets, stats)
