"""Compact dynamic programming for discrete-metric labeling.

Section 3 solves mobile *stride* alignment (and, with the same machinery,
static axis alignment) under the discrete metric: every port gets a label
from a small candidate set, each edge pays its (closed-form, LIV-summed)
weight unless the labels at its two ports agree after the node's
transformation.  This is the "compact dynamic programming" of the
authors' POPL'93 paper: exact on trees via bottom-up tables over the
candidate sets, with spanning-tree + iterated-local-search refinement on
graphs with cycles, and exhaustive enumeration of small label spaces.

The formulation here is deliberately generic — a
:class:`DiscreteLabelingProblem` over hashable labels with per-edge
*relations* (e.g. a transpose node relates an axis permutation on one
side to the swapped permutation on the other) — so that axis and stride
alignment are both thin wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import lcm
from typing import Callable, Hashable, Iterable, Mapping

from ..ir.affine import Scalar, exact_div, scalar

Label = Hashable
NodeId = Hashable
# A relation maps the label at the edge tail to the label the head must
# carry for the edge to be communication-free.  Identity by default.
Relation = Callable[[Label], Label]
# Alternatively a predicate decides compatibility directly (used for
# non-functional constraints like transformer evaluation equalities).
Predicate = Callable[[Label, Label], bool]


def identity_relation(x: Label) -> Label:
    return x


@dataclass
class LabelEdge:
    u: NodeId
    v: NodeId
    weight: Scalar
    relation: Relation = identity_relation
    predicate: Predicate | None = None

    def cost(self, lu: Label, lv: Label) -> Scalar:
        if self.predicate is not None:
            return 0 if self.predicate(lu, lv) else self.weight
        return 0 if self.relation(lu) == lv else self.weight


@dataclass
class LabelingResult:
    labels: dict[NodeId, Label]
    cost: Scalar
    exact: bool


class DiscreteLabelingProblem:
    """Minimize total discrete-metric edge cost over per-node label choices."""

    def __init__(self) -> None:
        self.candidates: dict[NodeId, list[Label]] = {}
        self.edges: list[LabelEdge] = []
        self._adj: dict[NodeId, list[int]] = {}

    def add_node(self, node: NodeId, candidates: Iterable[Label]) -> None:
        cands = list(dict.fromkeys(candidates))
        if not cands:
            raise ValueError(f"node {node!r} has an empty candidate set")
        self.candidates[node] = cands
        self._adj.setdefault(node, [])

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        weight: Scalar,
        relation: Relation = identity_relation,
        predicate: Predicate | None = None,
    ) -> None:
        if u not in self.candidates or v not in self.candidates:
            raise KeyError("both endpoints must be added before the edge")
        e = LabelEdge(u, v, scalar(weight), relation, predicate)
        idx = len(self.edges)
        self.edges.append(e)
        self._adj[u].append(idx)
        self._adj[v].append(idx)

    # -- cost of a complete labeling -----------------------------------------

    def total_cost(self, labels: Mapping[NodeId, Label]) -> Scalar:
        return scalar(sum(e.cost(labels[e.u], labels[e.v]) for e in self.edges))

    # -- exact DP on trees ------------------------------------------------------

    def _is_forest(self) -> bool:
        seen_edges: set[int] = set()
        visited: set[NodeId] = set()
        for root in self.candidates:
            if root in visited:
                continue
            stack = [(root, -1)]
            visited.add(root)
            while stack:
                node, via = stack.pop()
                for ei in self._adj[node]:
                    if ei == via or ei in seen_edges:
                        continue
                    e = self.edges[ei]
                    other = e.v if e.u == node else e.u
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
        labels: dict[NodeId, Label] = {}
        total = 0
        visited: set[NodeId] = set()
        for root in self.candidates:
            if root in visited:
                continue
            order: list[tuple[NodeId, int]] = []  # (node, via-edge) postorder
            stack = [(root, -1)]
            visited.add(root)
            while stack:
                node, via = stack.pop()
                order.append((node, via))
                for ei in self._adj[node]:
                    if ei == via:
                        continue
                    e = self.edges[ei]
                    other = e.v if e.u == node else e.u
                    if other not in visited:
                        visited.add(other)
                        stack.append((other, ei))
            # table[node][label] = best cost of node's subtree given label
            table: dict[NodeId, dict[Label, Scalar]] = {}
            choice: dict[tuple[NodeId, Label, int], Label] = {}
            for node, via in reversed(order):
                t = {lab: 0 for lab in self.candidates[node]}
                for ei in self._adj[node]:
                    if ei == via:
                        continue
                    e = self.edges[ei]
                    child = e.v if e.u == node else e.u
                    if child not in table:
                        continue  # not in this subtree (shouldn't happen)
                    for lab in t:
                        best = None
                        best_child = None
                        for clab, ccost in table[child].items():
                            ec = (
                                e.cost(lab, clab)
                                if e.u == node
                                else e.cost(clab, lab)
                            )
                            cand = ccost + ec
                            if best is None or cand < best:
                                best = cand
                                best_child = clab
                        t[lab] += best  # type: ignore[arg-type]
                        choice[(node, lab, ei)] = best_child
                table[node] = t
            # choose root label, then propagate down
            root_label = min(table[root], key=lambda lab: table[root][lab])
            total += table[root][root_label]
            labels[root] = root_label
            down = [(root, -1)]
            while down:
                node, via = down.pop()
                for ei in self._adj[node]:
                    if ei == via:
                        continue
                    e = self.edges[ei]
                    child = e.v if e.u == node else e.u
                    if child in labels:
                        continue
                    labels[child] = choice[(node, labels[node], ei)]
                    down.append((child, ei))
        return LabelingResult(labels, scalar(total), exact=True)

    # -- exhaustive enumeration --------------------------------------------------

    def solve_exhaustive(self, limit: int = 2_000_000) -> LabelingResult:
        """Exact minimum by enumerating every labeling.

        Not only a test oracle: :meth:`AxisStrideSolver.solve
        <repro.align.axis_stride.AxisStrideSolver.solve>` calls it in
        production for every label space of at most 200 000 labelings.
        That threshold is the caller's and is the one that governs a
        plan; ``limit`` is only this method's own refusal point for a
        direct caller, above which it raises ``ValueError``.

        Each edge is priced once per pair of candidate labels, into a
        table of integer numerators over the weights' common
        denominator; the walk is ``itertools.product`` order over the
        nodes in insertion order, and the first minimum wins.
        """
        nodes = list(self.candidates)
        size = 1
        for n in nodes:
            size *= len(self.candidates[n])
            if size > limit:
                raise ValueError(f"search space exceeds limit ({limit})")
        den = lcm(*(e.weight.denominator for e in self.edges))
        pos = {n: i for i, n in enumerate(nodes)}
        priced = [
            (
                pos[e.u],
                pos[e.v],
                [
                    [int(e.cost(lu, lv) * den) for lv in self.candidates[e.v]]
                    for lu in self.candidates[e.u]
                ],
            )
            for e in self.edges
        ]
        best_cost: int | None = None
        best: tuple[int, ...] = ()
        for combo in product(*(range(len(self.candidates[n])) for n in nodes)):
            c = 0
            for iu, iv, table in priced:
                c += table[combo[iu]][combo[iv]]
            if best_cost is None or c < best_cost:
                best_cost = c
                best = combo
        assert best_cost is not None
        labels = {n: self.candidates[n][i] for n, i in zip(nodes, best)}
        return LabelingResult(labels, exact_div(best_cost, den), exact=True)

    # -- general graphs: spanning-tree seed + iterated conditional modes ---------

    def solve(self, max_rounds: int = 50) -> LabelingResult:
        """Exact on forests; otherwise spanning-tree DP seed + ICM refinement.

        The discrete-metric alignment problem on general graphs is NP-hard
        (the POPL'93 paper); this mirrors the authors' "compact dynamic
        programming" practice: solve the dominant tree structure exactly,
        then settle cycle edges by coordinate descent to a local optimum.
        """
        if self._is_forest():
            return self.solve_tree()
        # Build a spanning forest sub-problem with the same candidates.
        tree = DiscreteLabelingProblem()
        for n, cands in self.candidates.items():
            tree.add_node(n, cands)
        visited: set[NodeId] = set()
        for root in self.candidates:
            if root in visited:
                continue
            visited.add(root)
            stack = [root]
            while stack:
                node = stack.pop()
                for ei in self._adj[node]:
                    e = self.edges[ei]
                    other = e.v if e.u == node else e.u
                    if other in visited:
                        continue
                    visited.add(other)
                    tree.add_edge(e.u, e.v, e.weight, e.relation, e.predicate)
                    stack.append(other)
        seed = tree.solve_tree().labels
        labels = dict(seed)
        # Iterated conditional modes on the full edge set.
        for _ in range(max_rounds):
            changed = False
            for node in self.candidates:
                if len(self.candidates[node]) == 1:
                    continue
                best_lab = labels[node]
                best_cost = self._local_cost(node, best_lab, labels)
                for lab in self.candidates[node]:
                    c = self._local_cost(node, lab, labels)
                    if c < best_cost:
                        best_cost = c
                        best_lab = lab
                        changed = True
                labels[node] = best_lab
            if not changed:
                break
        return LabelingResult(labels, self.total_cost(labels), exact=False)

    def _local_cost(
        self, node: NodeId, lab: Label, labels: Mapping[NodeId, Label]
    ) -> Scalar:
        total = 0
        for ei in self._adj[node]:
            e = self.edges[ei]
            if e.u == node:
                total += e.cost(lab, labels[e.v])
            else:
                total += e.cost(labels[e.u], lab)
        return total
