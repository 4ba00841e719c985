"""Replication labeling by network flow (Section 5, Theorem 1).

Per template axis ("the current axis"), every port is labeled R
(replicated) or N (non-replicated), subject to:

1. a port for which the current axis is a *body* axis is N;
2. a spread along the current axis has its input port R and its output
   port N (the spread itself neither computes nor communicates — it just
   converts a replicated object into a higher-dimensional one);
3. a port of a *read-only* object with a mobile offset in the current
   (space) axis is R — replication realizes the mobile alignment for
   free;
4. specified ports (replicated lookup tables via the ``replicated``
   declaration attribute) are R;
5. at every other node, all ports share one label.

Minimizing broadcast communication — the total weight of edges directed
from an N port to an R port — is a minimum s-t cut in a graph with one
vertex per ADG node (two for current-axis spreads), infinite-capacity
arcs pinning the prelabeled vertices, and ADG edges carrying their
closed-form total data weights.  The max-flow/min-cut theorem makes the
optimum exact (Theorem 1); we solve it with Dinic's algorithm.

Only rule 3 depends on the offsets, so :class:`ReplicationLabeler` is
compiled once per graph and skeleton: one pass over the ADG finds the
carriers of every read-only array, each edge's capacity is priced once,
and each axis's cut graph holds its arcs and its fixed pins.  Labeling
under a set of offsets then only decides which carriers are mobile, and
a set of R pins already cut keeps its cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Mapping

from ..adg.graph import ADG, ADGNode, Port
from ..adg.nodes import NodeKind, SourcePayload, SpreadPayload
from ..ir.affine import Scalar, scalar
from ..lang.ast import Program, walk_stmts, Assign
from ..solvers.maxflow import INF, FlowNetwork
from .cost import cached_moments
from .offset_static import OffsetMap
from .position import Alignment

Skeleton = Mapping[str, Alignment]


@dataclass
class ReplicationResult:
    """Per-axis labels plus the broadcast cost the cut certifies."""

    labels: dict[tuple[str, int], str] = field(default_factory=dict)  # (Port.key, axis) -> R/N
    cut_value: dict[int, Scalar] = field(default_factory=dict)  # axis -> cost

    def replicated_ports(self) -> set[tuple[str, int]]:
        return {k for k, v in self.labels.items() if v == "R"}

    def is_replicated(self, p: Port, axis: int) -> bool:
        return self.labels.get((p.key, axis)) == "R"


def read_only_arrays(program: Program) -> set[str]:
    """Arrays never assigned (plus explicitly readonly declarations)."""
    assigned = {
        s.lhs.name for s in walk_stmts(program.body) if isinstance(s, Assign)
    }
    out = set()
    for d in program.decls:
        if d.readonly or d.name not in assigned:
            out.add(d.name)
    return out


_PASSTHROUGH = frozenset(
    (NodeKind.TRANSFORMER, NodeKind.MERGE, NodeKind.FANOUT, NodeKind.BRANCH)
)


def value_carriers(adg: ADG, arrays: Collection[str]) -> set[int]:
    """Nodes that carry the (unmodified) value of any of ``arrays``.

    One scan of the nodes finds the arrays' sources; one search from
    all of them at once follows value-preserving node kinds:
    transformers, merges, fanouts, branches.  Computation nodes stop the
    propagation — past them the value is a different object.  Each node
    is visited at most twice, however many arrays there are.
    """
    carriers: set[int] = set()
    frontier: list[ADGNode] = []
    for n in adg.nodes:
        if n.kind is NodeKind.SOURCE and isinstance(n.payload, SourcePayload):
            if n.payload.array in arrays:
                carriers.add(n.nid)
                frontier.append(n)
    while frontier:
        n = frontier.pop()
        for p in n.outputs():
            for e in adg.out_edges(p):
                m = e.head.node
                if m.kind in _PASSTHROUGH and m.nid not in carriers:
                    carriers.add(m.nid)
                    frontier.append(m)
    return carriers


def _current_axis_spread(n: ADGNode, skeleton: Skeleton, axis: int) -> bool:
    if n.kind is not NodeKind.SPREAD:
        return False
    assert isinstance(n.payload, SpreadPayload)
    out = n.outputs()[0]
    out_align = skeleton[out.key]
    try:
        return out_align.template_axis_of(n.payload.dim - 1) == axis
    except KeyError:
        return False


@dataclass
class _AxisCut:
    """One axis's min-cut graph, all but the mobile-carrier pins.

    ``base`` holds the ADG edges' arcs and the N pins (``pins_n`` says
    whether there are any); ``r_pins`` lists every R pin in node order,
    each a vertex and either ``None`` (always pinned) or the port keys
    of a read-only carrier, pinned when one of them has a mobile offset
    on the axis; ``ports`` is each port's key with its fixed label or
    the node vertex whose side labels it.  ``answers`` keeps the labels
    and cut value under each set of R pins cut so far: the cut is a
    function of the pins alone.
    """

    base: FlowNetwork
    pins_n: bool
    r_pins: list[tuple[object, list[str] | None]]
    ports: list[tuple[str, str | None, int]]
    answers: dict = field(default_factory=dict)


_S, _T = ("__source__",), ("__sink__",)


class ReplicationLabeler:
    """Theorem 1's labeling, compiled once per graph and skeleton.

    Construction finds the read-only arrays' carriers in one pass over
    the ADG, prices each edge's capacity (its total data weight) once,
    and builds each axis's cut graph with its fixed pins: spreads along
    the axis split in two, body-axis, source and sink vertices.  A
    :meth:`solve` then only pins the carriers that its offsets make
    mobile and cuts, so a replication fixpoint labels every round
    against one compiled labeler.
    """

    def __init__(
        self,
        adg: ADG,
        skeleton: Skeleton,
        program: Program | None = None,
        minimal: bool = False,
    ) -> None:
        self.adg = adg
        self.skeleton = skeleton
        self.program = program
        # minimal: apply only the *forced* labels (spread inputs R,
        # everything else N) — the no-replication-optimization baseline.
        self.minimal = minimal
        self.readonly = read_only_arrays(program) if program is not None else set()
        carriers = value_carriers(adg, self.readonly) if self.readonly else set()
        capacity = [
            float(cached_moments(e.space, e.weight).m0) * e.control_weight
            for e in adg.edges
        ]
        self._axes = [
            self._compile(axis, carriers, capacity)
            for axis in range(adg.template_rank)
        ]

    def _compile(
        self, axis: int, carriers: set[int], capacity: list[float]
    ) -> _AxisCut:
        skel = self.skeleton

        def body(p: Port) -> bool:
            sk = skel[p.key]
            return axis < sk.template_rank and sk.axes[axis].is_body

        # Spreads along this axis: each is split into an in and an out vertex.
        split = {
            n.nid for n in self.adg.nodes if _current_axis_spread(n, skel, axis)
        }
        pinned_n: set[object] = set()
        r_pins: list[tuple[object, list[str] | None]] = []
        ports: list[tuple[str, str | None, int]] = []
        for n in self.adg.nodes:
            nid = n.nid
            if nid in split:
                r_pins.append(((nid, "in"), None))
                pinned_n.add((nid, "out"))
                ports.extend(
                    (p.key, "N" if p.is_output or body(p) else "R", nid)
                    for p in n.ports
                )
                continue
            on_body = [body(p) for p in n.ports]
            ports.extend(
                (p.key, "N" if b else None, nid) for p, b in zip(n.ports, on_body)
            )
            if any(on_body):
                pinned_n.add(nid)
            elif n.kind is NodeKind.SOURCE and isinstance(n.payload, SourcePayload):
                if n.payload.replicate_hint:
                    r_pins.append((nid, None))  # rule 4: replicated lookup tables
                else:
                    # Subroutine boundary: initial data arrives with one
                    # copy (rule 4's "specified labels").
                    pinned_n.add(nid)
            elif n.kind is NodeKind.SINK:
                pinned_n.add(nid)  # results must be written back single-copy
            elif nid in carriers and all(
                axis < skel[p.key].template_rank for p in n.ports
            ):
                # rule 3: a read-only value with a mobile offset here
                r_pins.append((nid, [p.key for p in n.ports]))

        def vertex_of(p: Port) -> object:
            nid = p.node.nid
            if nid in split:
                return (nid, "in" if not p.is_output else "out")
            return nid

        g = FlowNetwork()
        g.node(_S)
        g.node(_T)
        for e, cap in zip(self.adg.edges, capacity):
            u = vertex_of(e.tail)
            v = vertex_of(e.head)
            if u != v:
                g.add_edge(u, v, cap)
        for nv in pinned_n:
            g.add_edge(_S, nv, INF)
        return _AxisCut(g, bool(pinned_n), r_pins, ports)

    def label_axis(
        self, axis: int, offsets: OffsetMap | None = None
    ) -> tuple[dict[str, str], Scalar]:
        """Label every port for one axis under ``offsets`` (default: none,
        so no carrier is mobile); returns (labels by port key, cut value)."""
        offsets = offsets or {}
        cut = self._axes[axis]
        pinned = tuple(
            vertex
            for vertex, keys in cut.r_pins
            if keys is None
            or any(
                off is not None and not off.is_constant
                for off in (offsets.get((key, axis)) for key in keys)
            )
        )
        answer = cut.answers.get(pinned)
        if answer is None:
            answer = cut.answers[pinned] = self._cut(cut, pinned)
        return answer

    def _cut(
        self, cut: _AxisCut, pinned: tuple
    ) -> tuple[dict[str, str], Scalar]:
        pinned_r = set(pinned)
        g = cut.base.copy()
        for rv in pinned_r:
            g.add_edge(rv, _T, INF)
        names = (g.name_of(i) for i in range(g.num_nodes))
        if self.minimal:
            # Forced labels only: every unpinned vertex stays N.
            s_side = set(names) - pinned_r
            value = sum(w for (u, v, w) in g.cut_edges(s_side) if w != INF)
        elif pinned_r or cut.pins_n:
            value, s_side, _ = g.min_cut(_S, _T)
        else:
            # Nothing forces replication: all N, no broadcasts.
            value, s_side = 0.0, set(names)
        labels = {
            key: fixed
            if fixed is not None
            else ("R" if nid in g and nid not in s_side else "N")
            for key, fixed, nid in cut.ports
        }
        return labels, scalar(Fraction(value).limit_denominator(10**6))

    def solve(self, offsets: OffsetMap | None = None) -> ReplicationResult:
        """Label every template axis under ``offsets`` (default: none)."""
        result = ReplicationResult()
        for axis in range(self.adg.template_rank):
            labels, value = self.label_axis(axis, offsets)
            result.cut_value[axis] = value
            for key, lab in labels.items():
                result.labels[(key, axis)] = lab
        return result


def label_replication(
    adg: ADG,
    skeleton: Skeleton,
    program: Program | None = None,
    offsets: OffsetMap | None = None,
    minimal: bool = False,
) -> ReplicationResult:
    """Run replication labeling for every template axis.

    ``minimal=True`` applies only the forced labels (the no-optimization
    baseline); otherwise the min-cut of Theorem 1 decides.
    """
    return ReplicationLabeler(adg, skeleton, program, minimal=minimal).solve(offsets)
