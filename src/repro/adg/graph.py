"""The alignment-distribution graph (ADG) data structures.

Section 2.2: nodes represent computation, edges represent flow of data,
and *ports* (edge endpoints) carry alignments.  A node constrains the
relative alignments of its ports; an edge whose two ports have different
alignments incurs realignment cost proportional to the data weight times
the metric distance between the alignments (equation 1).

This module holds the pure graph structure.  Node kinds and their
constraint payloads are in :mod:`repro.adg.nodes`; construction from
programs in :mod:`repro.adg.build`; the cost model and optimization in
:mod:`repro.align`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..ir.affine import AffineForm
from ..ir.itspace import IterationSpace
from ..ir.polynomial import Polynomial
from .nodes import NodeKind, NodePayload


@dataclass(eq=False)
class Port:
    """An endpoint of an edge: one (static) definition or use of an object.

    ``shape`` is the symbolic shape of the object seen at this port (a
    tuple of affine extents); ``space`` the iteration space of the
    enclosing loops.  Alignments are assigned to ports by the alignment
    phase and stored externally (the ADG itself is analysis-agnostic).

    ``key`` is the port's *stable* identity — ``"n<nid>.<index>"``,
    assigned at construction.  Every external per-port map (skeletons,
    offsets, replication labels, alignments) is keyed by it rather than
    by ``id(port)``, so those maps survive pickling across process
    boundaries and remain valid against a re-hydrated graph.
    """

    node: "ADGNode"
    name: str
    shape: tuple[AffineForm, ...]
    space: IterationSpace
    is_output: bool
    index: int = 0  # ordinal within the node's port list
    key: str = ""

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def uid(self) -> str:
        return f"{self.node.uid}.{self.name}"

    def __repr__(self) -> str:
        arrow = "out" if self.is_output else "in"
        return f"<{self.uid}:{arrow} rank={self.rank}>"


@dataclass(eq=False)
class ADGNode:
    """A computation (or structural) node with typed constraint payload.

    ``stmt`` is build provenance: the tag of the top-level statement (or
    declaration) whose construction created the node — ``"s<i>"`` for
    the i-th body statement, ``"decl:<name>"`` for declaration
    sources/sinks, ``""`` when unknown (e.g. graphs unpickled from an
    older cache).  Nothing reads it: it stays only because it is part of
    the pickled ADG layout (``serve/cache.py::SCHEMA_VERSION``).
    """

    kind: NodeKind
    payload: NodePayload
    label: str
    nid: int = -1
    ports: list[Port] = field(default_factory=list)
    stmt: str = ""

    @property
    def uid(self) -> str:
        return f"n{self.nid}:{self.label}"

    def add_port(
        self,
        name: str,
        shape: tuple[AffineForm, ...],
        space: IterationSpace,
        is_output: bool,
    ) -> Port:
        ports = self.ports
        index = len(ports)
        p = Port(self, name, shape, space, is_output, index, f"n{self.nid}.{index}")
        ports.append(p)
        return p

    def inputs(self) -> list[Port]:
        return [p for p in self.ports if not p.is_output]

    def outputs(self) -> list[Port]:
        return [p for p in self.ports if p.is_output]

    def __repr__(self) -> str:
        return f"<node {self.uid} {self.kind.name}>"


@dataclass(eq=False)
class ADGEdge:
    """Data flow from a definition port to a use port.

    ``weight`` is the data weight w_xy — the element count of the object,
    polynomial in the LIVs.  ``space`` is the edge's iteration space: the
    data flows once per point of the space.  ``control_weight`` scales
    expected cost for edges inside conditional arms (Section 6's c_e).
    """

    tail: Port
    head: Port
    weight: Polynomial
    space: IterationSpace
    control_weight: float = 1.0
    eid: int = -1

    def __repr__(self) -> str:
        return f"<edge e{self.eid} {self.tail.uid} -> {self.head.uid}>"


class ADG:
    """The alignment-distribution graph for one procedure."""

    # Class-level default so graphs unpickled from pre-provenance caches
    # still answer the attribute; the builder sets the instance copy.
    current_stmt: str = ""

    def __init__(self, name: str = "main", template_rank: int = 1) -> None:
        self.name = name
        self.template_rank = template_rank
        self.nodes: list[ADGNode] = []
        self.edges: list[ADGEdge] = []
        self._next_eid = 0
        # Adjacency is keyed by the stable Port.key (not id(port)) so a
        # pickled ADG re-hydrates with working out_edges/in_edges maps.
        self._out_edges: dict[str, list[ADGEdge]] = {}
        self._in_edges: dict[str, list[ADGEdge]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, kind: NodeKind, payload: NodePayload, label: str) -> ADGNode:
        nodes = self.nodes
        n = ADGNode(kind, payload, label, len(nodes), [], self.current_stmt)
        nodes.append(n)
        return n

    def add_edge(
        self,
        tail: Port,
        head: Port,
        weight: Polynomial,
        space: IterationSpace,
        control_weight: float = 1.0,
    ) -> ADGEdge:
        if not tail.is_output:
            raise ValueError(f"edge tail {tail.uid} is not an output port")
        if head.is_output:
            raise ValueError(f"edge head {head.uid} is an output port")
        eid = self._next_eid
        e = ADGEdge(tail, head, weight, space, control_weight, eid)
        self._next_eid = eid + 1
        self.edges.append(e)
        self._out_edges.setdefault(tail.key, []).append(e)
        self._in_edges.setdefault(head.key, []).append(e)
        return e

    def remove_edge(self, e: ADGEdge) -> None:
        self.edges.remove(e)
        self._out_edges[e.tail.key].remove(e)
        self._in_edges[e.head.key].remove(e)

    # -- queries ---------------------------------------------------------------

    def out_edges(self, p: Port) -> list[ADGEdge]:
        return list(self._out_edges.get(p.key, []))

    def in_edges(self, p: Port) -> list[ADGEdge]:
        return list(self._in_edges.get(p.key, []))

    def first_out_edge(self, p: Port) -> ADGEdge | None:
        """The oldest edge out of ``p`` (``None`` if there is none),
        without copying the edge list."""
        edges = self._out_edges.get(p.key)
        return edges[0] if edges else None

    def ports(self) -> Iterator[Port]:
        for n in self.nodes:
            yield from n.ports

    def stats(self) -> dict[str, int]:
        from collections import Counter

        kinds = Counter(n.kind.name for n in self.nodes)
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "ports": sum(len(n.ports) for n in self.nodes),
            **{f"kind_{k}": v for k, v in sorted(kinds.items())},
        }

    def validate(self) -> None:
        """Structural invariants: every edge joins exactly two ports of
        matching rank; every input port has at most one incoming edge
        (single definition); output ports with multiple consumers must
        belong to fanout-capable kinds (handled during build)."""
        for e in self.edges:
            if len(e.tail.shape) != len(e.head.shape):
                raise AssertionError(
                    f"rank mismatch on {e}: {e.tail.rank} vs {e.head.rank}"
                )
        # Only input ports have in-edges (``add_edge`` refuses the rest).
        for defs in self._in_edges.values():
            if len(defs) > 1:
                raise AssertionError(
                    f"use port {defs[0].head.uid} has multiple definitions"
                )

    def __repr__(self) -> str:
        return (
            f"<ADG {self.name}: {len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"template rank {self.template_rank}>"
        )
