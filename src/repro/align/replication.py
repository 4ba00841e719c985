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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..adg.graph import ADG, ADGNode, Port
from ..adg.nodes import NodeKind, SourcePayload, SpreadPayload
from ..ir.affine import AffineForm, Scalar, scalar
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


def value_carrier_nodes(adg: ADG, array: str) -> set[int]:
    """Nodes that carry the (unmodified) value of ``array``.

    BFS from the array's source through value-preserving node kinds:
    transformers, merges, fanouts, branches.  Computation nodes stop the
    propagation — past them the value is a different object.
    """
    carriers: set[int] = set()
    frontier: list[ADGNode] = []
    for n in adg.nodes:
        if n.kind is NodeKind.SOURCE and isinstance(n.payload, SourcePayload):
            if n.payload.array == array:
                carriers.add(n.nid)
                frontier.append(n)
    passthrough = {
        NodeKind.TRANSFORMER,
        NodeKind.MERGE,
        NodeKind.FANOUT,
        NodeKind.BRANCH,
    }
    while frontier:
        n = frontier.pop()
        for p in n.outputs():
            for e in adg.out_edges(p):
                m = e.head.node
                if m.kind in passthrough and m.nid not in carriers:
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


class ReplicationLabeler:
    def __init__(
        self,
        adg: ADG,
        skeleton: Skeleton,
        program: Program | None = None,
        offsets: OffsetMap | None = None,
        minimal: bool = False,
    ) -> None:
        self.adg = adg
        self.skeleton = skeleton
        self.program = program
        self.offsets = offsets or {}
        # minimal: apply only the *forced* labels (spread inputs R,
        # everything else N) — the no-replication-optimization baseline.
        self.minimal = minimal
        self.readonly = read_only_arrays(program) if program is not None else set()

    def _edge_weight(self, e) -> float:
        m = cached_moments(e.space, e.weight)
        return float(m.m0) * e.control_weight

    def label_axis(self, axis: int) -> tuple[dict[int, str], Scalar, dict[str, str]]:
        """Label every node for one axis; returns (node labels, cut value,
        spread-split labels keyed by port key)."""
        g = FlowNetwork()
        S, T = ("__source__",), ("__sink__",)
        g.node(S)
        g.node(T)

        pinned_n: set[object] = set()
        pinned_r: set[object] = set()
        # Spreads along this axis: each is split into an in and an out vertex.
        split = {
            n.nid
            for n in self.adg.nodes
            if _current_axis_spread(n, self.skeleton, axis)
        }

        def vertex_of(p: Port) -> object:
            nid = p.node.nid
            if nid in split:
                return (nid, "in" if not p.is_output else "out")
            return nid

        carriers_mobile: set[int] = set()
        for arr in self.readonly:
            carriers = value_carrier_nodes(self.adg, arr)
            for nid in carriers:
                node = self.adg.nodes[nid]
                mobile = False
                space_ok = True
                for p in node.ports:
                    sk = self.skeleton[p.key]
                    if axis >= sk.template_rank:
                        space_ok = False
                        break
                    if sk.axes[axis].is_body:
                        space_ok = False
                        break
                    off = self.offsets.get((p.key, axis))
                    if off is not None and not off.is_constant:
                        mobile = True
                if space_ok and mobile:
                    carriers_mobile.add(nid)

        for n in self.adg.nodes:
            if n.nid in split:
                pinned_r.add((n.nid, "in"))
                pinned_n.add((n.nid, "out"))
                continue
            body_here = any(
                axis < self.skeleton[p.key].template_rank
                and self.skeleton[p.key].axes[axis].is_body
                for p in n.ports
            )
            if body_here:
                pinned_n.add(n.nid)
                continue
            if n.kind is NodeKind.SOURCE and isinstance(n.payload, SourcePayload):
                if n.payload.replicate_hint:
                    pinned_r.add(n.nid)  # rule 4: replicated lookup tables
                else:
                    # Subroutine boundary: initial data arrives with one
                    # copy (rule 4's "specified labels").
                    pinned_n.add(n.nid)
                continue
            if n.kind is NodeKind.SINK:
                pinned_n.add(n.nid)  # results must be written back single-copy
                continue
            if n.nid in carriers_mobile:
                pinned_r.add(n.nid)

        for e in self.adg.edges:
            u = vertex_of(e.tail)
            v = vertex_of(e.head)
            if u == v:
                continue
            g.add_edge(u, v, self._edge_weight(e))
        for nv in pinned_n:
            g.add_edge(S, nv, INF)
        for rv in pinned_r:
            g.add_edge(rv, T, INF)

        if self.minimal:
            # Forced labels only: every unpinned vertex stays N.
            s_side = {g.name_of(i) for i in range(g.num_nodes)} - set(pinned_r)
            value = sum(
                w for (u, v, w) in g.cut_edges(s_side) if w != INF
            )
        elif pinned_r or pinned_n:
            value, s_side, _ = g.min_cut(S, T)
        else:
            # Nothing forces replication: all N, no broadcasts.
            value, s_side = 0.0, {g.name_of(i) for i in range(g.num_nodes)}

        labels: dict[int, str] = {}
        # Split spreads: fixed labels.
        spread_labels: dict[str, str] = {}
        for n in self.adg.nodes:
            if n.nid in split:
                for p in n.ports:
                    spread_labels[p.key] = "R" if not p.is_output else "N"
            elif n.nid in g:
                labels[n.nid] = "N" if n.nid in s_side else "R"
            else:
                labels[n.nid] = "N"
        return labels, scalar(Fraction(value).limit_denominator(10**6)), spread_labels

    def solve(self) -> ReplicationResult:
        result = ReplicationResult()
        for axis in range(self.adg.template_rank):
            node_labels, value, spread_labels = self.label_axis(axis)
            result.cut_value[axis] = value
            for n in self.adg.nodes:
                for p in n.ports:
                    if p.key in spread_labels:
                        lab = spread_labels[p.key]
                    else:
                        lab = node_labels.get(n.nid, "N")
                    sk = self.skeleton[p.key]
                    if (
                        axis < sk.template_rank
                        and sk.axes[axis].is_body
                    ):
                        lab = "N"  # rule 1, port-level
                    result.labels[(p.key, axis)] = lab
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
    return ReplicationLabeler(
        adg, skeleton, program, offsets, minimal
    ).solve()
