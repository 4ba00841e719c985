"""Max-flow / min-cut, written from scratch.

Theorem 1 of the paper reduces replication labeling to s-t min-cut.  The
paper notes any standard algorithm works [Papadimitriou & Steiglitz;
Tarjan]; we run Dinic's algorithm on an adjacency-list residual graph
with integer-or-float capacities and a proper infinity.  ``networkx``
cross-checks its flow values and cuts in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable

INF = float("inf")

NodeId = Hashable


@dataclass
class _Arc:
    to: int
    cap: float
    flow: float
    rev: int  # index of the reverse arc in adj[to]


class FlowNetwork:
    """A directed flow network over arbitrary hashable node ids.

    ``add_edge(u, v, cap)`` adds a forward arc with capacity ``cap`` and a
    reverse residual arc with capacity 0.  Parallel edges are allowed and
    kept separate (their capacities are not merged), which keeps cut
    reporting faithful to the ADG edges that created them.
    """

    def __init__(self) -> None:
        self._ids: dict[NodeId, int] = {}
        self._names: list[NodeId] = []
        self.adj: list[list[_Arc]] = []
        self._edges: list[tuple[int, int, int]] = []  # (u, arc_index, v)

    def node(self, name: NodeId) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._ids[name] = idx
            self._names.append(name)
            self.adj.append([])
        return idx

    def name_of(self, idx: int) -> NodeId:
        return self._names[idx]

    def __contains__(self, name: NodeId) -> bool:
        return name in self._ids

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    def add_edge(self, u: NodeId, v: NodeId, cap: float) -> int:
        """Add arc u->v with capacity cap; returns an edge handle."""
        if cap < 0:
            raise ValueError("capacity must be nonnegative")
        ui, vi = self.node(u), self.node(v)
        fwd = _Arc(vi, float(cap), 0.0, len(self.adj[vi]))
        rev = _Arc(ui, 0.0, 0.0, len(self.adj[ui]))
        self.adj[ui].append(fwd)
        self.adj[vi].append(rev)
        handle = len(self._edges)
        self._edges.append((ui, len(self.adj[ui]) - 1, vi))
        return handle

    def reset_flow(self) -> None:
        for arcs in self.adj:
            for arc in arcs:
                arc.flow = 0.0

    # -- algorithms --------------------------------------------------------

    def max_flow(self, s: NodeId, t: NodeId) -> float:
        """Compute a maximum s-t flow (Dinic); flow is left on the arcs."""
        si, ti = self.node(s), self.node(t)
        if si == ti:
            raise ValueError("source equals sink")
        self.reset_flow()
        return self._dinic(si, ti)

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.num_nodes
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for arc in self.adj[u]:
                if level[arc.to] < 0 and arc.cap - arc.flow > 1e-12:
                    level[arc.to] = level[u] + 1
                    q.append(arc.to)
        return level if level[t] >= 0 else None

    def _dinic(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return total
            it = [0] * self.num_nodes

            def dfs(u: int, pushed: float) -> float:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    arc = self.adj[u][it[u]]
                    residual = arc.cap - arc.flow
                    if residual > 1e-12 and level[arc.to] == level[u] + 1:
                        got = dfs(arc.to, min(pushed, residual))
                        if got > 0:
                            arc.flow += got
                            self.adj[arc.to][arc.rev].flow -= got
                            return got
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, INF)
                if pushed <= 0:
                    break
                total += pushed

    def min_cut(
        self, s: NodeId, t: NodeId
    ) -> tuple[float, set[NodeId], set[NodeId]]:
        """Return ``(cut_value, S_side, T_side)`` of a minimum s-t cut.

        The S side is the set of nodes reachable from ``s`` in the residual
        graph after a max flow; by max-flow/min-cut the forward capacity
        across (S, T) equals the flow value.
        """
        value = self.max_flow(s, t)
        si = self.node(s)
        seen = [False] * self.num_nodes
        seen[si] = True
        q = deque([si])
        while q:
            u = q.popleft()
            for arc in self.adj[u]:
                if not seen[arc.to] and arc.cap - arc.flow > 1e-12:
                    seen[arc.to] = True
                    q.append(arc.to)
        s_side = {self.name_of(i) for i in range(self.num_nodes) if seen[i]}
        t_side = {self.name_of(i) for i in range(self.num_nodes) if not seen[i]}
        return value, s_side, t_side

    def cut_edges(self, s_side: set[NodeId]) -> list[tuple[NodeId, NodeId, float]]:
        """Forward arcs crossing from ``s_side`` to its complement."""
        out = []
        for u, ai, v in self._edges:
            un, vn = self.name_of(u), self.name_of(v)
            if un in s_side and vn not in s_side:
                out.append((un, vn, self.adj[u][ai].cap))
        return out
