"""Compact dynamic programming for discrete-metric labeling.

Section 3 solves mobile *stride* alignment (and, with the same machinery,
static axis alignment) under the discrete metric: every port gets a label
from a small candidate set, each edge pays its (closed-form, LIV-summed)
weight unless the labels at its two ports agree after the node's
transformation.  This is the "compact dynamic programming" of the
authors' POPL'93 paper: exact on trees via bottom-up tables over the
candidate sets, with spanning-tree + iterated-local-search refinement on
graphs with cycles, and exhaustive enumeration of small label spaces.

The problem arrives compiled: node ``k`` has ``sizes[k]`` candidates,
known only by their index, and every edge is a priced table, ``table[i]
[j]`` the exact integer numerator of what the edge costs when its tail
takes candidate ``i`` and its head candidate ``j``, over the problem's
one common denominator ``den``.  What the labels are and how an edge
relates them (an identity, a transpose, a section) is the caller's,
who prices each edge once (:class:`repro.align.axis_stride.
AxisStrideSolver`); every solver here only reads the tables, in node
and edge insertion order, and keeps the first minimum it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from ..ir.affine import Scalar, exact_div

# table[i][j]: the edge's cost numerator when its tail takes candidate i
# and its head candidate j.
Table = list[list[int]]


@dataclass
class LabelingResult:
    labels: list[int]  # the chosen candidate index of each node
    cost: Scalar
    exact: bool


class DiscreteLabelingProblem:
    """Minimize total discrete-metric edge cost over per-node label choices."""

    def __init__(self, sizes: Iterable[int], den: int = 1) -> None:
        self.sizes = list(sizes)
        if not all(s > 0 for s in self.sizes):
            raise ValueError("every node needs a nonempty candidate set")
        self.den = den
        self.edges: list[tuple[int, int, Table]] = []
        self._adj: list[list[int]] = [[] for _ in self.sizes]

    def add_edge(self, u: int, v: int, table: Table) -> None:
        if not (0 <= u < len(self.sizes) and 0 <= v < len(self.sizes)):
            raise KeyError("both endpoints must be nodes of the problem")
        if len(table) != self.sizes[u] or len(table[0]) != self.sizes[v]:
            raise ValueError(f"edge table is not {self.sizes[u]} x {self.sizes[v]}")
        self._adj[u].append(len(self.edges))
        self._adj[v].append(len(self.edges))
        self.edges.append((u, v, table))

    # -- cost of a complete labeling -----------------------------------------

    def total_cost(self, labels: Sequence[int]) -> Scalar:
        return exact_div(sum(t[labels[u]][labels[v]] for u, v, t in self.edges), self.den)

    def _costs(self, node: int, ei: int) -> Table:
        """Edge ``ei``'s table with ``node``'s candidates as its rows."""
        u, _, table = self.edges[ei]
        return table if u == node else [list(c) for c in zip(*table)]

    # -- exact DP on trees ------------------------------------------------------

    def _is_forest(self) -> bool:
        seen_edges: set[int] = set()
        visited: set[int] = set()
        for root in range(len(self.sizes)):
            if root in visited:
                continue
            stack = [(root, -1)]
            visited.add(root)
            while stack:
                node, via = stack.pop()
                for ei in self._adj[node]:
                    if ei == via or ei in seen_edges:
                        continue
                    u, v, _ = self.edges[ei]
                    other = v if u == node else u
                    if other in visited:
                        return False
                    seen_edges.add(ei)
                    visited.add(other)
                    stack.append((other, ei))
        return True

    def solve_tree(self) -> LabelingResult:
        """Exact bottom-up DP; requires the edge structure to be a forest."""
        if not self._is_forest():
            raise ValueError("labeling graph is not a forest; use solve()")
        labels = [0] * len(self.sizes)
        total = 0
        visited: set[int] = set()
        for root in range(len(self.sizes)):
            if root in visited:
                continue
            order: list[tuple[int, int]] = []  # (node, via-edge) postorder
            stack = [(root, -1)]
            visited.add(root)
            while stack:
                node, via = stack.pop()
                order.append((node, via))
                for ei in self._adj[node]:
                    if ei == via:
                        continue
                    u, v, _ = self.edges[ei]
                    other = v if u == node else u
                    if other not in visited:
                        visited.add(other)
                        stack.append((other, ei))
            # table[node][i] = best cost of node's subtree given candidate i
            table: dict[int, list[int]] = {}
            choice: dict[tuple[int, int, int], int] = {}
            for node, via in reversed(order):
                t = [0] * self.sizes[node]
                for ei in self._adj[node]:
                    if ei == via:
                        continue
                    u, v, _ = self.edges[ei]
                    child = v if u == node else u
                    if child not in table:
                        continue  # not in this subtree (shouldn't happen)
                    below = table[child]
                    for i, row in enumerate(self._costs(node, ei)):
                        sums = [a + b for a, b in zip(below, row)]
                        best = min(sums)
                        t[i] += best
                        choice[(node, i, ei)] = sums.index(best)
                table[node] = t
            # choose root label, then propagate down
            t = table[root]
            labels[root] = t.index(min(t))
            total += t[labels[root]]
            done = {root}
            down = [(root, -1)]
            while down:
                node, via = down.pop()
                for ei in self._adj[node]:
                    if ei == via:
                        continue
                    u, v, _ = self.edges[ei]
                    child = v if u == node else u
                    if child in done:
                        continue
                    done.add(child)
                    labels[child] = choice[(node, labels[node], ei)]
                    down.append((child, ei))
        return LabelingResult(labels, exact_div(total, self.den), exact=True)

    # -- exhaustive enumeration --------------------------------------------------

    def solve_exhaustive(self, limit: int = 2_000_000) -> LabelingResult:
        """Exact minimum by enumerating every labeling.

        Not only a test oracle: :meth:`AxisStrideSolver.solve
        <repro.align.axis_stride.AxisStrideSolver.solve>` calls it in
        production for every label space of at most 200 000 labelings.
        That threshold is the caller's and is the one that governs a
        plan; ``limit`` is only this method's own refusal point for a
        direct caller, above which it raises ``ValueError``.

        The walk is ``itertools.product`` order over the nodes in
        insertion order, and the first minimum wins.
        """
        size = 1
        for s in self.sizes:
            size *= s
            if size > limit:
                raise ValueError(f"search space exceeds limit ({limit})")
        best_cost: int | None = None
        best: tuple[int, ...] = ()
        for combo in product(*(range(s) for s in self.sizes)):
            c = 0
            for iu, iv, table in self.edges:
                c += table[combo[iu]][combo[iv]]
            if best_cost is None or c < best_cost:
                best_cost = c
                best = combo
        assert best_cost is not None
        return LabelingResult(list(best), exact_div(best_cost, self.den), exact=True)

    # -- general graphs: spanning-tree seed + iterated conditional modes ---------

    def solve(self, max_rounds: int = 50) -> LabelingResult:
        """Exact on forests; otherwise spanning-tree DP seed + ICM refinement.

        The discrete-metric alignment problem on general graphs is NP-hard
        (the POPL'93 paper); this mirrors the authors' "compact dynamic
        programming" practice: solve the dominant tree structure exactly,
        then settle cycle edges by coordinate descent to a local optimum.
        A node moves only to a strictly cheaper candidate, the first one
        in candidate order at the least cost.
        """
        if self._is_forest():
            return self.solve_tree()
        # Build a spanning forest sub-problem with the same candidates.
        tree = DiscreteLabelingProblem(self.sizes, self.den)
        visited: set[int] = set()
        for root in range(len(self.sizes)):
            if root in visited:
                continue
            visited.add(root)
            stack = [root]
            while stack:
                node = stack.pop()
                for ei in self._adj[node]:
                    u, v, table = self.edges[ei]
                    other = v if u == node else u
                    if other in visited:
                        continue
                    visited.add(other)
                    tree.add_edge(u, v, table)
                    stack.append(other)
        labels = tree.solve_tree().labels
        # Iterated conditional modes on the full edge set.
        for _ in range(max_rounds):
            changed = False
            for node, size in enumerate(self.sizes):
                if size == 1:
                    continue
                local = [0] * size
                for ei in self._adj[node]:
                    u, v, table = self.edges[ei]
                    if u == node:
                        col = labels[v]
                        local = [c + row[col] for c, row in zip(local, table)]
                    else:
                        local = [c + x for c, x in zip(local, table[labels[u]])]
                best = min(local)
                if best < local[labels[node]]:
                    labels[node] = local.index(best)
                    changed = True
            if not changed:
                break
        return LabelingResult(labels, self.total_cost(labels), exact=False)
