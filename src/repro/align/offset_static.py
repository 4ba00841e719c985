"""Offset alignment by rounded linear programming (Sections 4.1–4.3).

This module is the LP core shared by every mobile-offset algorithm: given

* a *skeleton* (axis/stride labels from Section 3),
* a per-axis replication labeling (Section 5; replicated endpoints drop
  their edges from the offset problem), and
* a *partition plan* assigning each edge a list of subranges of its
  iteration space (Section 4.2),

it solves one LP per template axis — separability of the grid metric
(Section 2.3) makes the axes independent — with

* one offset-coefficient variable per (port, LIV-slot),
* the node relations of :mod:`repro.align.constraints` as equalities,
* one bound variable per (edge, subrange) with the paper's two
  inequalities ``theta >= +-(span-sum)``, where the span-sum is the
  moment form ``delta a . M_R`` evaluated in closed form,

and *rounds*: each node derives integer offsets for all its ports from
its root port, so node constraints hold exactly after rounding (the
relation graph is per-node, hence acyclic).

The problem is compiled once (:class:`OffsetProblem`) and every LP is a
mask over the compiled arrays.  Each (port, LIV) slot is an integer.
Per axis, the relation rows, the pins (one per weakly-connected
component) and the static rows are integer and float arrays; per plan,
so are the edge-term rows of every edge whose two ends share a
skeleton, each with its moments looked up once.  An axis's LP keeps
the edges with no endpoint replicated on that axis.  Its columns are
numbered in first-use order: relation rows in node order (with every
slot a relation names, the ``k`` slot of an entry or loop-back relation
even when its coefficient is 0), then edge rows tail before head with
``theta`` after its slots (zero-moment slots included), then the pins,
then the static rows.  The LP has ties and HiGHS returns a different
vertex under a column permutation, so that order is part of the result.
The LP HiGHS gets (:class:`repro.solvers.lp.LP`, in its own canonical
CSC form), the memo digest and the read-back all come from those
arrays; rounding follows a per-node derivation order computed
once per axis, because it depends on the relations and not on the
values.

For a program with no loops every edge space is scalar, the plan is the
trivial single subrange, and this reduces to the static offset LP of the
authors' POPL'93 paper, as Section 4 notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, MutableMapping

import numpy as np

from ..adg.graph import ADG, ADGEdge, Port
from ..adg.nodes import NodeKind
from ..ir.affine import AffineForm, Scalar
from ..ir.itspace import IterationSpace
from ..ir.symbols import LIV
from ..solvers.lp import LP, solve
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


# ``lp_value`` moves a value by at most 5e-10 (a fraction over 10**9 lies
# that close), so only a value this near a half can round otherwise than
# the float itself does.
_HALF_BAND = 1e-6


def rounded_lp_values(x: np.ndarray) -> np.ndarray:
    """``[round(lp_value(v)) for v in x]`` as one ``int64`` array.

    ``round`` breaks ties to even, as ``np.rint`` does; the two differ
    only where ``lp_value`` lands on a half the float is not, so values
    within ``_HALF_BAND`` of a half take the scalar path.
    """
    out = np.rint(x)
    for i in np.flatnonzero(np.abs(x - np.floor(x) - 0.5) <= _HALF_BAND):
        out[i] = round(lp_value(float(x[i])))
    return out.astype(np.int64)


def derive_q(rel: OffsetRelation, pa: AffineForm, qk: int) -> AffineForm:
    """Port ``q``'s rounded offset from ``p``'s; ``qk`` is the rounded
    LP value of ``q``'s ``liv`` slot (read by an entry relation only)."""
    if isinstance(rel, EqualShift):
        return pa + rel.shift
    if isinstance(rel, EntryEval):
        k, v = rel.liv, rel.value
        coeffs = {liv: pa.coeff(liv) for liv in rel.p.space.livs}
        coeffs[k] = qk
        return AffineForm(pa.const - v * qk, coeffs)
    if isinstance(rel, LoopBack):
        return pa.shift_liv(rel.liv, -rel.step)
    raise TypeError(rel)


def derive_p(rel: OffsetRelation, qa: AffineForm) -> AffineForm:
    """Port ``p``'s rounded offset from ``q``'s."""
    if isinstance(rel, EqualShift):
        return qa - rel.shift
    if isinstance(rel, EntryEval):
        # a_p0 = a_q0 + v * a_qk ; p copies q's other slots
        k, v = rel.liv, rel.value
        coeffs = {liv: qa.coeff(liv) for liv in rel.p.space.livs}
        return AffineForm(qa.const + v * qa.coeff(k), coeffs)
    if isinstance(rel, LoopBack):
        return qa.shift_liv(rel.liv, rel.step)
    raise TypeError(rel)


def _plan(adg: ADG, m: int | None) -> PartitionPlan:
    """``m`` equal subranges per axis of every edge space; ``None`` for
    every iteration its own subrange."""
    plan: PartitionPlan = {}
    made: dict[IterationSpace, list[IterationSpace]] = {}  # edges share spaces
    for e in adg.edges:
        space = e.space
        parts = made.get(space)
        if parts is None:
            n = m
            if n is None:
                n = max((len(t) for t in space.triplets), default=1)
            parts = made[space] = space.grid_partition(n)
        plan[e.eid] = list(parts)
    return plan


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


class _Rows:
    """Rows written as numbers: ``slots``/``vals`` flat, ``lens`` per
    row, and ``touch``, the slots in the order the rows first name them
    (a slot with a zero coefficient included)."""

    def __init__(self) -> None:
        self.slots: list[int] = []
        self.vals: list[float] = []
        self.lens: list[int] = []
        self.rhs: list[float] = []
        self.touch: list[int] = []

    def add(self, slots: list[int], vals: list[float], rhs: float) -> None:
        self.slots += slots
        self.vals += vals
        self.lens.append(len(slots))
        self.rhs.append(rhs)


@dataclass
class _Axis:
    """One template axis's compiled equality rows (relations, pins,
    static) and its rounding steps."""

    touch: np.ndarray  # relation slots, first use first
    tail_touch: np.ndarray  # pin and static slots, first use first
    slots: np.ndarray
    vals: np.ndarray
    lens: np.ndarray
    rhs: np.ndarray
    steps: list
    port_keys: list[str]


@dataclass
class _EdgeBlock:
    """One plan's edge rows, for every axis: item ``k`` is one non-empty
    subrange of one skeleton-equal edge, and its ``theta`` is the slot
    code ``-1 - k`` until an LP numbers it."""

    plan: PartitionPlan
    item_edge: np.ndarray  # index into OffsetProblem.edges
    weight: np.ndarray  # the edge's control weight
    touch: np.ndarray
    touch_item: np.ndarray
    slots: np.ndarray  # plus row then minus row of each item
    vals: np.ndarray  # as ``<=`` rows
    entry_item: np.ndarray
    lens: np.ndarray  # two rows per item
    answers: dict = field(default_factory=dict)  # (axis, costed edges) -> answer


# Rounding steps: seed a port from its own slots, or derive q from p or
# p from q.
_SEED, _Q, _P = 0, 1, 2


class OffsetProblem:
    """The offset problem of one graph under one skeleton, compiled once.

    ``solve(plan, replicated, memo)`` solves every template axis under
    a partition plan and a replicated set.  Relations, pins, static rows
    and rounding steps are compiled per axis on construction; each
    plan's edge rows on its first solve.  Across solves, an axis whose
    replicated slice leaves it the edges it was solved with under the
    same plan reuses that answer without building the LP: the LP is a
    function of those edges alone.
    ``memo`` keeps each distinct numeric LP's rounded point under the
    digest of the LP HiGHS receives; pass one mapping to many solves
    and an LP any of them has solved is not solved again.

    Build one per graph, skeleton and ``static`` flag and drop it with
    them: it is never stored on a context or pickled.
    """

    def __init__(
        self, adg: ADG, skeleton: Mapping[str, Alignment], static: bool = False
    ) -> None:
        self.adg = adg
        self.skeleton = skel = dict(skeleton)
        self.static = static
        # Each port's slots are numbered together, its constant first,
        # then its space's LIVs; a LIV outside the space gets one later.
        ports = list(adg.ports())
        self._n_slots = 0
        self._base: dict[str, int] = {}
        self._extra: dict[Slot, int] = {}
        self._port_slots: dict[str, tuple[int, list[tuple[LIV, int]]]] = {}
        for p in ports:
            base = self._base[p.key] = self._n_slots
            livs = p.space.livs
            self._n_slots += 1 + len(livs)
            self._port_slots[p.key] = (base, [(liv, base + 1 + j) for j, liv in enumerate(livs)])
        rank = adg.template_rank
        self.relations: list[list[OffsetRelation]] = [[] for _ in range(rank)]
        for n in adg.nodes:
            for rel in node_offset_relations(n, skel):
                if rel.axis < rank:
                    self.relations[rel.axis].append(rel)
        self.edges = [e for e in adg.edges if skel[e.tail.key] == skel[e.head.key]]
        self._ends = [(e.tail.key, e.head.key) for e in self.edges]
        # The components the edges make, shared by the axes' pins.
        index = {p.key: i for i, p in enumerate(ports)}
        joined = list(range(len(ports)))
        for e in adg.edges:
            _union(joined, index[e.tail.key], index[e.head.key])
        self._ports, self._port_index, self._joined = ports, index, joined
        static_rows = _Rows()
        if static:
            # Static-alignment baseline: loop-carried values (merge nodes)
            # and program variables (sources/sinks) may not move with the
            # LIVs.  Derived section positions stay mobile, as they must.
            for n in adg.nodes:
                if n.kind in (NodeKind.SOURCE, NodeKind.MERGE, NodeKind.SINK):
                    for p in n.ports:
                        for liv in p.space.livs:
                            s = self._slot(p, liv)
                            static_rows.touch.append(s)
                            static_rows.add([s], [1.0], 0.0)
        self._axes = [self._compile_axis(axis, static_rows) for axis in range(rank)]
        self._blocks: dict[int, _EdgeBlock] = {}
        self._plans: dict[int | None, PartitionPlan] = {}

    # -- slots ------------------------------------------------------------------

    def _slot(self, p: Port, liv: LIV | None) -> int:
        base = self._base[p.key]
        if liv is None:
            return base
        try:
            return base + 1 + p.space.livs.index(liv)
        except ValueError:
            key = (p.key, liv)
            s = self._extra.get(key)
            if s is None:
                s = self._extra[key] = self._n_slots
                self._n_slots += 1
            return s

    # -- compilation --------------------------------------------------------------

    def _compile_axis(self, axis: int, static_rows: _Rows) -> _Axis:
        rels = self.relations[axis]
        slot, base = self._slot, self._base
        rows = _Rows()
        touch = rows.touch
        for rel in rels:
            # A relation joins two distinct ports of one node, so the
            # slots of one row are distinct columns.
            p, q = rel.p, rel.q
            if isinstance(rel, EqualShift):
                shift = rel.shift
                q0, p0 = base[q.key], base[p.key]
                touch += (q0, p0)
                rows.add([q0, p0], [1.0, -1.0], float(shift.const))
                q_livs, p_livs = q.space.livs, p.space.livs
                for liv in sorted({*q_livs, *p_livs, *shift.livs()}):
                    cols, vals = [], []
                    if liv in q_livs:
                        cols.append(slot(q, liv))
                        vals.append(1.0)
                    if liv in p_livs:
                        cols.append(slot(p, liv))
                        vals.append(-1.0)
                    touch += cols
                    rows.add(cols, vals, float(shift.coeff(liv)))
                continue
            if isinstance(rel, EntryEval):
                # a_q0 + v*a_qk = a_p0; the a_qk slot is named even when
                # v is 0.
                q0, qk, p0 = slot(q, None), slot(q, rel.liv), slot(p, None)
                touch += (q0, qk, p0)
                v = rel.value
                cols = [q0, qk, p0] if v else [q0, p0]
                vals = [1.0, float(v), -1.0] if v else [1.0, -1.0]
                livs = p.space.livs
            elif isinstance(rel, LoopBack):
                # f_q(k) = f_p(k - s):  a_q0 = a_p0 - s*a_pk ;  a_qk = a_pk
                q0, p0, pk = slot(q, None), slot(p, None), slot(p, rel.liv)
                touch += (q0, p0, pk)
                s = rel.step
                cols = [q0, p0, pk] if s else [q0, p0]
                vals = [1.0, -1.0, float(s)] if s else [1.0, -1.0]
                livs = q.space.livs
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown relation {rel!r}")
            rows.add(cols, vals, 0.0)
            for liv in livs:
                ql, pl = slot(q, liv), slot(p, liv)
                touch += (ql, pl)
                rows.add([ql, pl], [1.0, -1.0], 0.0)
        # Pin one port per weakly-connected component to anchor
        # translation: the first port, in port order, of each.
        tail = _Rows()
        for p in self._pinned_ports(rels):
            s = slot(p, None)
            tail.touch.append(s)
            tail.add([s], [1.0], 0.0)
        tail.touch += static_rows.touch
        steps, port_keys = self._rounding_steps(axis, rels)
        return _Axis(
            np.array(rows.touch, dtype=np.int64),
            np.array(tail.touch, dtype=np.int64),
            np.array(rows.slots + tail.slots + static_rows.slots, dtype=np.int64),
            np.array(rows.vals + tail.vals + static_rows.vals, dtype=float),
            np.array(rows.lens + tail.lens + static_rows.lens, dtype=np.int64),
            np.array(rows.rhs + tail.rhs + static_rows.rhs, dtype=float),
            steps,
            port_keys,
        )

    def _pinned_ports(self, rels: list[OffsetRelation]) -> list[Port]:
        """The first port, in port order, of each component that the
        relations and the edges make."""
        index = self._port_index
        parent = list(self._joined)
        for rel in rels:
            _union(parent, index[rel.p.key], index[rel.q.key])
        pinned: set[int] = set()
        out = []
        for i, p in enumerate(self._ports):
            root = _find(parent, i)
            if root not in pinned:
                pinned.add(root)
                out.append(p)
        return out

    def _rounding_steps(self, axis: int, rels: list[OffsetRelation]):
        """The order in which rounding assigns every port of the axis:
        per node, derive ports from already-assigned neighbours, seed a
        root (rounded on its own) when stuck, then seed the ports no
        relation reached.  ``(kind, ...)`` steps and the port keys in
        node, then port order."""
        by_node: dict[int, list[OffsetRelation]] = {}
        for rel in rels:
            if rel.p.node is rel.q.node:
                by_node.setdefault(id(rel.p.node), []).append(rel)
        port_slots = self._port_slots
        steps: list = []
        port_keys: list[str] = []

        def seed(p: Port) -> None:
            steps.append((_SEED, p.key, *port_slots[p.key]))  # key, const, livs
            assigned.add(p.key)

        for n in self.adg.nodes:
            assigned: set[str] = set()
            pending = by_node.get(id(n))
            progress = pending is not None
            while progress:
                progress = False
                for rel in list(pending):
                    pa, qa = rel.p.key in assigned, rel.q.key in assigned
                    if pa and qa:
                        pending.remove(rel)
                        continue
                    if not pa and not qa:
                        continue
                    if pa:
                        qk = self._slot(rel.q, rel.liv) if type(rel) is EntryEval else -1
                        steps.append((_Q, rel, qk, None))
                        assigned.add(rel.q.key)
                    else:
                        steps.append((_P, rel, -1, None))
                        assigned.add(rel.p.key)
                    pending.remove(rel)
                    progress = True
                if not progress and pending:
                    for rel in pending:
                        if rel.p.key not in assigned:
                            seed(rel.p)
                            progress = True
                            break
                        if rel.q.key not in assigned:
                            seed(rel.q)
                            progress = True
                            break
            for p in n.ports:
                if p.key not in assigned:
                    seed(p)
                port_keys.append(p.key)
        return steps, port_keys

    def _block(self, plan: PartitionPlan) -> _EdgeBlock:
        block = self._blocks.get(id(plan))
        if block is not None and block.plan is plan:
            return block
        slot = self._slot
        item_edge: list[int] = []
        weight: list[float] = []
        moments_of: list[Scalar] = []  # every item's [m0, m1...], in a row
        terms: list[int] = []  # per item: 1 + its LIVs
        tails: list[int] = []  # per moment: the tail's and the head's slot
        heads: list[int] = []
        for i, e in enumerate(self.edges):
            tail, head = e.tail, e.head
            cw = float(e.control_weight)
            livs = None
            for sub in plan.get(e.eid, [e.space]):
                if sub.is_empty():
                    continue
                if sub.livs is not livs:
                    # The subranges of one edge share its LIVs, and a
                    # subrange's first moments come in its LIV order.
                    livs = sub.livs
                    t_slots = [slot(tail, None), *(slot(tail, liv) for liv in livs)]
                    h_slots = [slot(head, None), *(slot(head, liv) for liv in livs)]
                moments = cached_moments(sub, e.weight)
                item_edge.append(i)
                weight.append(cw)
                moments_of.append(moments.m0)
                moments_of += moments.m1.values()
                terms.append(len(t_slots))
                tails += t_slots
                heads += h_slots
        n_items = len(item_edge)
        counts = np.array(terms, dtype=np.int64)
        term_item = np.repeat(np.arange(n_items), counts)
        m = np.array(moments_of, dtype=float)
        t = np.array(tails, dtype=np.int64)
        h = np.array(heads, dtype=np.int64)
        theta = -1 - np.arange(n_items)
        # Touched: each item's tail and head slots, term by term (a slot
        # with a zero moment is still named, so it still gets a column),
        # then its theta.
        touch = np.column_stack((t, h)).ravel()
        touch = np.insert(touch, np.cumsum(2 * counts), theta)
        # theta >= |inner|, inner = sum of moment * (tail slot - head
        # slot), as the two rows theta +- inner >= 0: per item the plus
        # row (t: m, h: -m per nonzero moment, then theta), then the
        # minus row (h: m, t: -m, then theta), each negated into a
        # ``<=`` row.  An edge runs from an output port to an input
        # port, so each slot gets exactly one coefficient.
        nz = m != 0.0
        kept = np.bincount(term_item[nz], minlength=n_items)
        pm = np.column_stack((m, -m))[nz].ravel()
        ones = np.ones(n_items)
        group = np.concatenate(
            (
                4 * np.repeat(term_item[nz], 2),
                4 * np.arange(n_items) + 1,
                4 * np.repeat(term_item[nz], 2) + 2,
                4 * np.arange(n_items) + 3,
            )
        )
        order = np.argsort(group, kind="stable")
        slots = np.concatenate(
            (np.column_stack((t, h))[nz].ravel(), theta, np.column_stack((h, t))[nz].ravel(), theta)
        )[order]
        vals = -np.concatenate((pm, ones, pm, ones))[order]
        row_len = 2 * kept + 1
        block = _EdgeBlock(
            plan,
            np.array(item_edge, dtype=np.int64),
            np.array(weight, dtype=float),
            touch,
            np.repeat(np.arange(n_items), 2 * counts + 1),
            slots,
            vals,
            np.repeat(np.arange(n_items), 2 * row_len),
            np.repeat(row_len, 2),
        )
        self._blocks[id(plan)] = block
        return block

    def partition(self, m: int | None) -> PartitionPlan:
        """The plan of ``m`` equal subranges per axis of every edge space
        (``None``: every iteration its own subrange), made once."""
        plan = self._plans.get(m)
        if plan is None:
            plan = self._plans[m] = _plan(self.adg, m)
        return plan

    # -- one axis's LP ----------------------------------------------------------

    def _live(self, axis: int, replicated: ReplicationLabels) -> np.ndarray:
        """Which skeleton-equal edges the axis costs: those with no
        endpoint replicated on it."""
        return np.fromiter(
            ((t, axis) not in replicated and (h, axis) not in replicated for t, h in self._ends),
            dtype=bool,
            count=len(self._ends),
        )

    def lp(
        self, axis: int, plan: PartitionPlan, replicated: ReplicationLabels
    ) -> tuple[LP, np.ndarray]:
        """The LP of ``axis`` under ``plan`` and ``replicated``, and the
        slot code of each of its columns (``n_slots + k`` for item
        ``k``'s ``theta``).  Rows are the edge rows (``<=``, right-hand
        side ``-0.0``) in edge order, then the relation rows, the pins
        and the static rows (``==``): the order in which HiGHS takes
        them."""
        ax, block = self._axes[axis], self._block(plan)
        n_slots = self._n_slots
        item_ok = self._live(axis, replicated)[block.item_edge]
        seq = np.concatenate((ax.touch, block.touch[item_ok[block.touch_item]], ax.tail_touch))
        theta = seq < 0
        seq[theta] = n_slots - 1 - seq[theta]
        uniq, first = np.unique(seq, return_index=True)
        ids = uniq[np.argsort(first)]
        n = len(ids)
        col_of = np.empty(n_slots + len(block.item_edge), dtype=np.int64)
        col_of[ids] = np.arange(n)
        entry_ok = item_ok[block.entry_item]
        edge_slots = block.slots[entry_ok]
        theta = edge_slots < 0
        edge_slots[theta] = n_slots - 1 - edge_slots[theta]
        n_ineq = 2 * int(item_ok.sum())
        lens = np.concatenate((block.lens[np.repeat(item_ok, 2)], ax.lens))
        m = len(lens)
        row = np.repeat(np.arange(m), lens)
        col = col_of[np.concatenate((edge_slots, ax.slots))]
        val = np.concatenate((block.vals[entry_ok], ax.vals))
        # Canonical CSC: column-major, rows ascending within a column
        # (the entries are in row order, so a stable sort on the column
        # keeps them so); a row names each column once, so there is
        # nothing to sum, and no entry is zero (``_block`` drops zero
        # moments; every other coefficient is a nonzero constant).  An
        # empty row keeps its place, a column with no entry its own.
        by_col = np.argsort(col, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
        costed = np.flatnonzero(item_ok & (block.weight != 0.0))
        c = np.zeros(n)
        c[col_of[n_slots + costed]] = block.weight[costed]
        lp = LP(
            c,
            indptr,
            row[by_col],
            val[by_col],
            (m, n),
            lo=np.concatenate((np.full(n_ineq, -np.inf), ax.rhs)),
            hi=np.concatenate((np.full(n_ineq, -0.0), ax.rhs)),
            lb=np.where(ids >= n_slots, 0.0, -np.inf),
            ub=np.full(n, np.inf),
        )
        return lp, ids

    def rounded_offsets(self, axis: int, v: list[int]) -> OffsetMap:
        """Integer offsets of every port on ``axis`` from the rounded LP
        value ``v[s]`` of each slot ``s``, node constraints exact."""
        ax = self._axes[axis]
        assigned: dict[str, AffineForm] = {}
        for kind, a, b, livs in ax.steps:
            if kind == _SEED:
                assigned[a] = AffineForm(v[b], {liv: v[s] for liv, s in livs})
            elif kind == _Q:
                assigned[a.q.key] = derive_q(a, assigned[a.p.key], v[b] if b >= 0 else 0)
            else:
                assigned[a.p.key] = derive_p(a, assigned[a.q.key])
        return {(key, axis): assigned[key] for key in ax.port_keys}

    def _solve_axis(
        self,
        axis: int,
        plan: PartitionPlan,
        replicated: ReplicationLabels,
        memo: MutableMapping,
    ) -> tuple[OffsetMap, OffsetLPStats]:
        lp, ids = self.lp(axis, plan, replicated)
        # An equal digest is an equal solver input, hence the same vertex.
        key = ("offset_lp", lp.digest())
        solved = memo.get(key)
        if solved is None:
            sol = solve(lp)
            if sol.status != "optimal":
                raise RuntimeError(f"offset LP axis {axis}: {sol.status}")
            x = rounded_lp_values(np.array(sol.x, dtype=float))
            x.flags.writeable = False
            solved = memo[key] = (x, sol.objective)
        x, objective = solved
        n_slots = self._n_slots
        v = np.zeros(n_slots, dtype=np.int64)
        is_slot = ids < n_slots
        v[ids[is_slot]] = x[is_slot]
        m, n = lp.shape
        stats = OffsetLPStats(axis, n, m, objective)
        return self.rounded_offsets(axis, v.tolist()), stats

    def solve(
        self,
        plan: PartitionPlan,
        replicated: ReplicationLabels | None = None,
        memo: MutableMapping | None = None,
    ) -> OffsetSolution:
        """Solve and round every template axis under one plan."""
        replicated = replicated or set()
        memo = {} if memo is None else memo
        block = self._block(plan)
        offsets: OffsetMap = {}
        stats = []
        for axis in range(self.adg.template_rank):
            reuse = (axis, self._live(axis, replicated).tobytes())
            answer = block.answers.get(reuse)
            if answer is None:
                answer = block.answers[reuse] = self._solve_axis(
                    axis, plan, replicated, memo
                )
            offsets.update(answer[0])
            stats.append(answer[1])
        return OffsetSolution(offsets, stats)
