"""Max-flow / min-cut, written from scratch.

Theorem 1 of the paper reduces replication labeling to s-t min-cut.  The
paper notes any standard algorithm works [Papadimitriou & Steiglitz;
Tarjan]; we run Dinic's algorithm with integer-or-float capacities and a
proper infinity.  The residual graph is four flat arc lists — head,
capacity, flow and reverse arc, indexed by arc number — plus each
node's arc numbers in insertion order: an edge adds its forward arc
``2k`` and its reverse arc ``2k + 1``, and no arc is an object.
``networkx`` cross-checks its flow values and cuts in the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

INF = float("inf")

NodeId = Hashable


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
        self.adj: list[list[int]] = []  # node -> its arc numbers
        self.head: list[int] = []
        self.cap: list[float] = []
        self.flow: list[float] = []
        self.rev: list[int] = []

    def copy(self) -> "FlowNetwork":
        """An independent network with the same nodes and arcs, in the
        same order, and the same flow."""
        g = FlowNetwork.__new__(FlowNetwork)
        g._ids = dict(self._ids)
        g._names = list(self._names)
        g.adj = [list(arcs) for arcs in self.adj]
        g.head, g.cap = list(self.head), list(self.cap)
        g.flow, g.rev = list(self.flow), list(self.rev)
        return g

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
        fwd = len(self.head)
        self.head += (vi, ui)
        self.cap += (float(cap), 0.0)
        self.flow += (0.0, 0.0)
        self.rev += (fwd + 1, fwd)
        self.adj[ui].append(fwd)
        self.adj[vi].append(fwd + 1)
        return fwd // 2

    def reset_flow(self) -> None:
        self.flow = [0.0] * len(self.flow)

    # -- algorithms --------------------------------------------------------

    def max_flow(self, s: NodeId, t: NodeId) -> float:
        """Compute a maximum s-t flow (Dinic); flow is left on the arcs."""
        si, ti = self.node(s), self.node(t)
        if si == ti:
            raise ValueError("source equals sink")
        self.reset_flow()
        return self._dinic(si, ti)

    def _levels(self, s: int) -> list[int]:
        """Breadth-first distance from ``s`` over arcs with residual
        capacity; -1 where a node is unreachable."""
        adj, head, cap, flow = self.adj, self.head, self.cap, self.flow
        level = [-1] * self.num_nodes
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in adj[u]:
                v = head[a]
                if level[v] < 0 and cap[a] - flow[a] > 1e-12:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _dinic(self, s: int, t: int) -> float:
        adj, head, cap, flow, rev = self.adj, self.head, self.cap, self.flow, self.rev
        total = 0.0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.num_nodes

            def dfs(u: int, pushed: float) -> float:
                if u == t:
                    return pushed
                arcs = adj[u]
                while it[u] < len(arcs):
                    a = arcs[it[u]]
                    v = head[a]
                    residual = cap[a] - flow[a]
                    if residual > 1e-12 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, residual))
                        if got > 0:
                            flow[a] += got
                            flow[rev[a]] -= got
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
        level = self._levels(self.node(s))
        names = self._names
        s_side = {names[i] for i, d in enumerate(level) if d >= 0}
        t_side = {names[i] for i, d in enumerate(level) if d < 0}
        return value, s_side, t_side

    def cut_edges(self, s_side: set[NodeId]) -> list[tuple[NodeId, NodeId, float]]:
        """Forward arcs crossing from ``s_side`` to its complement."""
        out = []
        for a in range(0, len(self.head), 2):
            un = self._names[self.head[self.rev[a]]]
            vn = self._names[self.head[a]]
            if un in s_side and vn not in s_side:
                out.append((un, vn, self.cap[a]))
        return out
