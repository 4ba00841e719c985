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
from typing import Iterable, Mapping, MutableMapping

from ..adg.graph import ADG, ADGEdge, ADGNode, Port
from ..adg.nodes import NodeKind
from ..ir.affine import AffineForm, Scalar
from ..ir.itspace import IterationSpace
from ..ir.symbols import LIV
from ..solvers.lp import LinExpr, LPModel, Variable
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


class OffsetLP:
    """One offset LP instance for a fixed template axis and plan.

    ``relations`` are this axis's node relations, in node order.  Rows
    are written straight into the model as ``{variable: float}`` maps
    (:meth:`LPModel.add_row`).  The LP has ties, and HiGHS returns a
    different optimal vertex under a column permutation, so the order in
    which ``_slot`` first sees each variable is part of the result:
    relation rows in node order, then edge rows tail before head with
    ``theta`` after its slots, then the pins.
    """

    def __init__(
        self,
        adg: ADG,
        skeleton: Mapping[str, Alignment],
        axis: int,
        relations: list[OffsetRelation],
        plan: PartitionPlan,
        replicated: ReplicationLabels | None = None,
        backend: str = "scipy",
        static: bool = False,
        memo: MutableMapping | None = None,
    ) -> None:
        self.adg = adg
        self.skeleton = skeleton
        self.axis = axis
        self.relations = relations
        self.plan = plan
        self.replicated = replicated or set()
        self.backend = backend
        self.static = static
        # (backend, digest of a built LP) -> (solution by variable
        # index, objective)
        self.memo = {} if memo is None else memo
        self.model = LPModel(f"offset-axis{axis}")
        self.vars: dict[Slot, Variable] = {}

    # -- variables ------------------------------------------------------------

    def _slot(self, p: Port, liv: LIV | None) -> Variable:
        key = (p.key, liv)
        v = self.vars.get(key)
        if v is None:
            name = f"p{p.key}_{'c' if liv is None else liv.name}"
            v = self.model.var(name)
            self.vars[key] = v
        return v

    # -- constraints --------------------------------------------------------------

    def _emit_relation(self, rel: OffsetRelation) -> None:
        # A relation joins two distinct ports of one node, so the slots
        # of one row are distinct variables.
        slot, add_row = self._slot, self.model.add_row
        if isinstance(rel, EqualShift):
            p, q, shift = rel.p, rel.q, rel.shift
            add_row(
                {slot(q, None): 1.0, slot(p, None): -1.0}, "==", float(shift.const)
            )
            livs = set(q.space.livs) | set(p.space.livs) | set(shift.livs())
            for liv in livs:
                row = {}
                if liv in q.space.livs:
                    row[slot(q, liv)] = 1.0
                if liv in p.space.livs:
                    row[slot(p, liv)] = -1.0
                add_row(row, "==", float(shift.coeff(liv)))
        elif isinstance(rel, EntryEval):
            p, q, k, v = rel.p, rel.q, rel.liv, rel.value
            # a_q0 + v*a_qk = a_p0
            row = {slot(q, None): 1.0}
            qk = slot(q, k)
            if v:
                row[qk] = float(v)
            row[slot(p, None)] = -1.0
            add_row(row, "==", 0.0)
            for liv in p.space.livs:
                add_row({slot(q, liv): 1.0, slot(p, liv): -1.0}, "==", 0.0)
        elif isinstance(rel, LoopBack):
            p, q, k, s = rel.p, rel.q, rel.liv, rel.step
            # f_q(k) = f_p(k - s):  a_q0 = a_p0 - s*a_pk ;  a_qk = a_pk
            row = {slot(q, None): 1.0, slot(p, None): -1.0}
            pk = slot(p, k)
            if s:
                row[pk] = float(s)
            add_row(row, "==", 0.0)
            for liv in q.space.livs:
                add_row({slot(q, liv): 1.0, slot(p, liv): -1.0}, "==", 0.0)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown relation {rel!r}")

    # -- assembly ----------------------------------------------------------------------

    def build(self) -> None:
        slot, add_row = self._slot, self.model.add_row
        for rel in self.relations:
            self._emit_relation(rel)
        objective: dict[Variable, float] = {}
        for e in self.adg.edges:
            if not edge_is_offset_costed(e, self.skeleton, self.axis, self.replicated):
                continue
            subranges = self.plan.get(e.eid, [e.space])
            for j, sub in enumerate(subranges):
                if sub.is_empty():
                    continue
                moments = cached_moments(sub, e.weight)
                # theta >= |inner|, inner = sum of moment * (tail slot -
                # head slot), as the two rows theta +- inner >= 0.  An
                # edge runs from an output port to an input port, so
                # each slot gets exactly one coefficient.
                plus: dict[Variable, float] = {}
                minus: dict[Variable, float] = {}
                for liv, moment in ((None, moments.m0), *moments.m1.items()):
                    m = float(moment)
                    tail, head = slot(e.tail, liv), slot(e.head, liv)
                    if m != 0.0:
                        plus[tail] = minus[head] = m
                        plus[head] = minus[tail] = -m
                theta = self.model.var(f"th_e{e.eid}_{j}", lower=0)
                plus[theta] = minus[theta] = 1.0
                add_row(plus, ">=", 0.0, f"abs_e{e.eid}_{j}+")
                add_row(minus, ">=", 0.0, f"abs_e{e.eid}_{j}-")
                objective[theta] = e.control_weight
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
                            add_row({slot(p, liv): 1.0}, "==", 0.0)
        self.model.minimize(LinExpr(objective))

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
                self.model.add_row({self._slot(p, None): 1.0}, "==", 0.0)

    # -- solve + round -----------------------------------------------------------------

    def solve(self) -> tuple[dict[Slot, Fraction], OffsetLPStats]:
        self.build()
        # An equal digest under one backend is an equal solver input,
        # hence the same vertex.
        key = ("offset_lp", self.backend, self.model.digest())
        solved = self.memo.get(key)
        if solved is None:
            sol = self.model.solve(backend=self.backend)
            if sol.status != "optimal":
                raise RuntimeError(f"offset LP axis {self.axis}: {sol.status}")
            solved = self.memo[key] = (
                tuple(sol.values[v] for v in self.model.variables),
                sol.objective,
            )
        x, objective = solved
        values = {
            key: Fraction(x[v.index]).limit_denominator(10**9)
            for key, v in self.vars.items()
        }
        stats = OffsetLPStats(
            self.axis,
            self.model.num_vars,
            self.model.num_constraints,
            objective,
        )
        return values, stats

    # -- rounding: per-node derivation keeps constraints exact ---------------------------

    def rounded_offsets(self, values: dict[Slot, Fraction]) -> OffsetMap:
        out: OffsetMap = {}

        def lp_slot(p: Port, liv: LIV | None) -> Scalar:
            return values.get((p.key, liv), 0)

        def rounded_port(p: Port) -> AffineForm:
            coeffs = {liv: round(lp_slot(p, liv)) for liv in p.space.livs}
            return AffineForm(round(lp_slot(p, None)), coeffs)

        for n in self.adg.nodes:
            rels = [r for r in self.relations if r.p.node is n or r.q.node is n]
            node_rels = [
                r for r in rels if r.p.node is n and r.q.node is n
            ]
            assigned: dict[str, AffineForm] = {}
            # Repeatedly derive ports from already-assigned neighbours.
            pending = list(node_rels)
            # Seed: root any port not derivable otherwise.
            order = list(n.ports)
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
            for p in order:
                if p.key not in assigned:
                    assigned[p.key] = rounded_port(p)
            for p in n.ports:
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
    backend: str = "scipy",
    static: bool = False,
    memo: MutableMapping | None = None,
) -> OffsetSolution:
    """Solve the offset problem for every template axis under one plan.

    ``memo`` keeps each distinct numeric LP's solution
    (:meth:`LPModel.digest`); pass one mapping to many calls and an LP
    any of them has solved is not solved again.
    """
    offsets: OffsetMap = {}
    stats = []
    skel = dict(skeleton)
    relations = [rel for n in adg.nodes for rel in node_offset_relations(n, skel)]
    for axis in range(adg.template_rank):
        on_axis = [rel for rel in relations if rel.axis == axis]
        lp = OffsetLP(
            adg, skeleton, axis, on_axis, plan, replicated, backend, static, memo
        )
        values, st = lp.solve()
        offsets.update(lp.rounded_offsets(values))
        stats.append(st)
    return OffsetSolution(offsets, stats)
