"""Axis/stride labeling over label objects: the test-only reference
that the production solver (``repro.align.axis_stride``, numbered
skeletons and integer tables) is checked against.

``ReferenceSolver`` is the solver as it was before it compiled its
labeling: each port's candidates a list of ``Alignment`` objects that
``_offer`` searches by equality, each label transform applied wherever
a site offers a label, and every hard node constraint a predicate on a
pair of labels.  ``LabeledProblem`` is the discrete labeling problem it
built: labels are any hashable objects, and an edge prices a pair of
labels through ``LabelEdge.cost`` (an identity, a relation or a
predicate) each time a solver asks.  ``tabulate`` compiles such a
problem into the production ``DiscreteLabelingProblem``, pricing every
edge once per label pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Hashable, Iterable, Mapping

from repro.adg.graph import ADG, ADGNode, Port
from repro.adg.nodes import (
    NodeKind,
    ReducePayload,
    SectionPayload,
    SpreadPayload,
    TransformerPayload,
)
from repro.align.axis_stride import (
    AxisStrideResult,
    Skeleton,
    _integral_strides,
    _skeleton,
    canonical_skeletons,
    reduce_backward,
    reduce_forward,
    section_backward,
    section_forward,
    spread_backward,
    spread_forward,
    substitute_liv,
    transpose_transform,
)
from repro.align.cost import cached_moments
from repro.ir.affine import AffineForm, Scalar, exact_div, scalar
from repro.solvers.dp import DiscreteLabelingProblem

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
class LabeledResult:
    labels: dict[NodeId, Label]
    cost: Scalar
    exact: bool


class LabeledProblem:
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

    def solve_tree(self) -> LabeledResult:
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
        return LabeledResult(labels, scalar(total), exact=True)

    # -- exhaustive enumeration --------------------------------------------------

    def solve_exhaustive(self, limit: int = 2_000_000) -> LabeledResult:
        """Exact minimum by enumerating every labeling: each edge priced
        once per pair of candidate labels into a table of integer
        numerators over the weights' common denominator, the walk in
        ``itertools.product`` order over the nodes in insertion order,
        the first minimum winning.  Above ``limit`` labelings it raises
        ``ValueError``."""
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
        return LabeledResult(labels, exact_div(best_cost, den), exact=True)

    # -- general graphs: spanning-tree seed + iterated conditional modes ---------

    def solve(self, max_rounds: int = 50) -> LabeledResult:
        """Exact on forests; otherwise spanning-tree DP seed + ICM refinement.

        The discrete-metric alignment problem on general graphs is NP-hard
        (the POPL'93 paper); this mirrors the authors' "compact dynamic
        programming" practice: solve the dominant tree structure exactly,
        then settle cycle edges by coordinate descent to a local optimum.
        """
        if self._is_forest():
            return self.solve_tree()
        # Build a spanning forest sub-problem with the same candidates.
        tree = LabeledProblem()
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
        return LabeledResult(labels, self.total_cost(labels), exact=False)

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


class ReferenceSolver:
    """``AxisStrideSolver`` as it was before it numbered its skeletons:
    candidate lists of ``Alignment`` objects, and hard constraints as
    predicates that the labeling problem calls once per label pair."""

    def __init__(self, adg: ADG, max_candidates: int = 64, rounds: int = 16) -> None:
        self.adg = adg
        self.max_candidates = max_candidates
        self.rounds = rounds
        self.candidates: dict[str, list[Skeleton]] = {}
        self.port_by_key: dict[str, Port] = {}
        # (use site, source Port.key) -> how many of the source's
        # candidates that site has read; see _fresh.
        self._offered: dict[tuple[object, str], int] = {}

    # -- candidate generation --------------------------------------------------

    def _seed(self) -> None:
        t = self.adg.template_rank
        self._offered.clear()
        for p in self.adg.ports():
            self.port_by_key[p.key] = p
            self.candidates[p.key] = []
        for n in self.adg.nodes:
            if n.kind is NodeKind.SOURCE:
                out = n.outputs()[0]
                # A fresh port keeps the first max_candidates distinct,
                # integral, rank-matching labels offered: every embedding
                # is one, so those are the first max_candidates built.
                self._offer(
                    out, canonical_skeletons(out.rank, t, self.max_candidates)
                )

    def _offer(self, p: Port, labels: Iterable[Skeleton | None]) -> bool:
        cands = self.candidates[p.key]
        changed = False
        for lab in labels:
            if lab is None:
                continue
            if lab.rank != p.rank:
                continue
            if not _integral_strides(lab):
                continue  # template cells are integral; 1/2-strides are illegal
            if lab not in cands and len(cands) < self.max_candidates:
                cands.append(lab)
                changed = True
        return changed

    def _fresh(self, site: object, src: Port) -> list[Skeleton]:
        """The labels ``src`` gained since ``site`` last read it.

        Propagation is semi-naive: the image of a label a use site has
        offered once is either present at the target or refused for good
        (``_offer`` refuses on rank, stride integrality or the cap, and a
        candidate list only grows), so offering it again changes
        nothing.  A site is the node, or the edge's eid, that reads
        ``src``: within one node every source port is read at one place,
        into one pool or through one transform, so the targets fed from
        that place share the watermark.
        """
        cands = self.candidates[src.key]
        key = (site, src.key)
        start = self._offered.get(key, 0)
        self._offered[key] = len(cands)
        return cands[start:]

    def _propagate_node(self, n: ADGNode) -> bool:
        changed = False
        kind = n.kind
        offer, fresh = self._offer, self._fresh
        if kind in (
            NodeKind.ELEMENTWISE,
            NodeKind.MERGE,
            NodeKind.FANOUT,
            NodeKind.BRANCH,
        ):
            pool = [l for p in n.ports for l in fresh(n, p)]
            for p in n.ports:
                changed |= offer(p, pool)
        elif kind is NodeKind.TRANSPOSE:
            inp, out = n.inputs()[0], n.outputs()[0]
            changed |= offer(out, [transpose_transform(l) for l in fresh(n, inp)])
            changed |= offer(inp, [transpose_transform(l) for l in fresh(n, out)])
        elif kind is NodeKind.SECTION:
            payload = n.payload
            assert isinstance(payload, SectionPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            subs = payload.subscripts
            changed |= offer(out, [section_forward(l, subs) for l in fresh(n, inp)])
            changed |= offer(
                inp, [section_backward(l, subs, inp.rank) for l in fresh(n, out)]
            )
        elif kind is NodeKind.SECTION_ASSIGN:
            payload = n.payload
            assert isinstance(payload, SectionPayload)
            ports = {p.name: p for p in n.ports}
            arr, out = ports["array"], ports["out"]
            value = ports.get("value")
            subs = payload.subscripts
            pool = fresh(n, arr) + fresh(n, out)
            changed |= offer(arr, pool)
            changed |= offer(out, pool)
            if value is not None:
                changed |= offer(value, [section_forward(l, subs) for l in pool])
                gained = fresh(n, value)
                # One image per target: no two ports share a label object.
                for target in (arr, out):
                    changed |= offer(
                        target,
                        [section_backward(l, subs, arr.rank) for l in gained],
                    )
        elif kind is NodeKind.SPREAD:
            payload = n.payload
            assert isinstance(payload, SpreadPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            for l in fresh(n, inp):
                changed |= offer(out, spread_forward(l, payload.dim))
            changed |= offer(
                inp, [spread_backward(l, payload.dim) for l in fresh(n, out)]
            )
        elif kind is NodeKind.REDUCE:
            payload = n.payload
            assert isinstance(payload, ReducePayload)
            outs = n.outputs()
            if outs and payload.dim is not None:
                inp, out = n.inputs()[0], outs[0]
                changed |= offer(
                    out, [reduce_forward(l, payload.dim) for l in fresh(n, inp)]
                )
                for l in fresh(n, out):
                    changed |= offer(inp, reduce_backward(l, payload.dim))
        elif kind is NodeKind.GATHER:
            ports = {p.name: p for p in n.ports}
            index, out = ports["index"], ports["out"]
            pool = fresh(n, index) + fresh(n, out)
            changed |= offer(index, pool)
            changed |= offer(out, pool)
        elif kind is NodeKind.TRANSFORMER:
            payload = n.payload
            assert isinstance(payload, TransformerPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            k = payload.liv
            if payload.kind == "entry":
                # f_out(k=lo) = f_in: constants pass through; backward
                # evaluates the mobile label at the first iteration.
                at = AffineForm(payload.value)
                changed |= offer(out, fresh(n, inp))
                changed |= offer(
                    inp, [substitute_liv(l, k, at) for l in fresh(n, out)]
                )
            elif payload.kind == "exit":
                at = AffineForm(payload.value)
                changed |= offer(
                    out, [substitute_liv(l, k, at) for l in fresh(n, inp)]
                )
                changed |= offer(inp, fresh(n, out))
            else:  # loop_back: f_out(k) = f_in(k - step)
                shift_out = AffineForm.variable(k) - payload.value
                shift_in = AffineForm.variable(k) + payload.value
                changed |= offer(
                    out, [substitute_liv(l, k, shift_out) for l in fresh(n, inp)]
                )
                changed |= offer(
                    inp, [substitute_liv(l, k, shift_in) for l in fresh(n, out)]
                )
        return changed

    def _propagate_edges(self) -> bool:
        changed = False
        for e in self.adg.edges:
            changed |= self._offer(e.head, self._fresh(e.eid, e.tail))
            changed |= self._offer(e.tail, self._fresh(e.eid, e.head))
        return changed

    def generate_candidates(self) -> None:
        self._seed()
        for _ in range(self.rounds):
            changed = False
            for n in self.adg.nodes:
                changed |= self._propagate_node(n)
            changed |= self._propagate_edges()
            if not changed:
                break
        # Every port must have at least one candidate, and keeps at most
        # max_candidates, as a seeded port does.
        t = self.adg.template_rank
        for p in self.adg.ports():
            if not self.candidates[p.key]:
                self.candidates[p.key] = canonical_skeletons(
                    p.rank, t, self.max_candidates
                ) or [_skeleton([(None, None)] * t)]

    # -- cost weights ---------------------------------------------------------------

    def _edge_weight(self, e) -> Scalar:
        m = cached_moments(e.space, e.weight)
        return scalar(m.m0 * Fraction(e.control_weight).limit_denominator(10**6))

    # -- identity contraction --------------------------------------------------------

    def _identity_classes(self) -> dict[str, str]:
        """Union-find over ports joined by *equality* node constraints.

        Elementwise/merge/fanout/branch join all their ports;
        SectionAssign joins array and out; Gather joins index and out.
        Contracting these leaves a small labeling problem whose remaining
        hard constraints are the functional ones (section, transformer,
        spread, reduce, transpose) — the "compact" in compact DP.
        """
        parent: dict[str, str] = {p.key: p.key for p in self.adg.ports()}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: Port, b: Port) -> None:
            ra, rb = find(a.key), find(b.key)
            if ra != rb:
                parent[ra] = rb

        for n in self.adg.nodes:
            if n.kind in (
                NodeKind.ELEMENTWISE,
                NodeKind.MERGE,
                NodeKind.FANOUT,
                NodeKind.BRANCH,
            ):
                for p in n.ports[1:]:
                    union(n.ports[0], p)
            elif n.kind is NodeKind.SECTION_ASSIGN:
                ports = {p.name: p for p in n.ports}
                union(ports["array"], ports["out"])
            elif n.kind is NodeKind.GATHER:
                ports = {p.name: p for p in n.ports}
                union(ports["index"], ports["out"])
        return {pk: find(pk) for pk in parent}

    # -- solve --------------------------------------------------------------------------

    def solve(self, regenerate: bool = True) -> AxisStrideResult:
        """Solve the labeling.  ``regenerate=False`` keeps externally
        edited candidate sets (used to compute restricted baselines such
        as best-static-stride)."""
        if regenerate or not any(self.candidates.values()):
            self.generate_candidates()
        cls = self._identity_classes()

        # Class candidate sets: intersection of members (equality classes
        # must share one label); union as a fallback if propagation left
        # the intersection empty.
        members: dict[str, list[str]] = {}
        for pk, root in cls.items():
            members.setdefault(root, []).append(pk)
        class_cands: dict[str, list[Skeleton]] = {}
        for root, pks in members.items():
            inter: list[Skeleton] | None = None
            for pk in pks:
                cands = self.candidates[pk]
                if inter is None:
                    inter = list(cands)
                else:
                    inter = [l for l in inter if l in cands]
            if not inter:
                seen: list[Skeleton] = []
                for pk in pks:
                    for l in self.candidates[pk]:
                        if l not in seen:
                            seen.append(l)
                inter = seen
            class_cands[root] = inter

        prob = LabeledProblem()
        for root, cands in class_cands.items():
            prob.add_node(root, cands)
        total_w = sum(self._edge_weight(e) for e in self.adg.edges)
        big = total_w * 1000 + 1

        # Functional node constraints between classes.
        for n in self.adg.nodes:
            for p, q, pred in self._functional_constraints(n):
                rp, rq = cls[p.key], cls[q.key]
                if rp == rq:
                    continue
                prob.add_edge(rp, rq, big, predicate=pred)
        # Soft data edges between classes.
        for e in self.adg.edges:
            rt, rh = cls[e.tail.key], cls[e.head.key]
            if rt == rh:
                continue  # same class: always aligned, cost 0
            prob.add_edge(rt, rh, self._edge_weight(e))

        space = 1
        for cands in class_cands.values():
            space *= max(1, len(cands))
        if space <= 200_000:
            result = prob.solve_exhaustive()
        else:
            result = prob.solve()
        if result.cost >= big:
            raise RuntimeError(
                "axis/stride labeling violates a node constraint; "
                "candidate generation needs more rounds/candidates"
            )
        skeletons = {pk: result.labels[root] for pk, root in cls.items()}
        return AxisStrideResult(
            skeletons, dict(self.port_by_key), result.cost, result.exact
        )

    def _functional_constraints(self, n: ADGNode):
        """Yield (p, q, predicate) hard constraints that are not identities."""
        kind = n.kind
        if kind is NodeKind.TRANSPOSE:
            inp, out = n.inputs()[0], n.outputs()[0]
            yield inp, out, lambda a, b: transpose_transform(a) == b
        elif kind is NodeKind.SECTION:
            payload = n.payload
            assert isinstance(payload, SectionPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            subs = payload.subscripts
            yield inp, out, lambda a, b, subs=subs: section_forward(a, subs) == b
        elif kind is NodeKind.SECTION_ASSIGN:
            payload = n.payload
            assert isinstance(payload, SectionPayload)
            ports = {p.name: p for p in n.ports}
            value = ports.get("value")
            if value is not None:
                subs = payload.subscripts
                yield ports["array"], value, (
                    lambda a, b, subs=subs: section_forward(a, subs) == b
                )
        elif kind is NodeKind.SPREAD:
            payload = n.payload
            assert isinstance(payload, SpreadPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            dim = payload.dim
            yield inp, out, lambda a, b, dim=dim: spread_backward(b, dim) == a
        elif kind is NodeKind.REDUCE:
            payload = n.payload
            assert isinstance(payload, ReducePayload)
            outs = n.outputs()
            if outs and payload.dim is not None:
                inp, out = n.inputs()[0], outs[0]
                dim = payload.dim
                yield inp, out, lambda a, b, dim=dim: reduce_forward(a, dim) == b
        elif kind is NodeKind.TRANSFORMER:
            payload = n.payload
            assert isinstance(payload, TransformerPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            k, v = payload.liv, payload.value
            if payload.kind == "entry":
                yield inp, out, (
                    lambda a, b, k=k, v=v: substitute_liv(b, k, AffineForm(v)) == a
                )
            elif payload.kind == "exit":
                yield inp, out, (
                    lambda a, b, k=k, v=v: substitute_liv(a, k, AffineForm(v)) == b
                )
            else:
                s = payload.value
                yield inp, out, (
                    lambda a, b, k=k, s=s: substitute_liv(
                        a, k, AffineForm.variable(k) - s
                    )
                    == b
                )




def tabulate(prob: LabeledProblem) -> DiscreteLabelingProblem:
    """``prob`` compiled: its nodes numbered in insertion order, and each
    edge priced once per pair of candidate labels into integer
    numerators over the weights' common denominator."""
    nodes = list(prob.candidates)
    pos = {n: i for i, n in enumerate(nodes)}
    den = lcm(*(Fraction(e.weight).denominator for e in prob.edges))
    out = DiscreteLabelingProblem([len(prob.candidates[n]) for n in nodes], den)
    for e in prob.edges:
        table = [
            [int(e.cost(lu, lv) * den) for lv in prob.candidates[e.v]]
            for lu in prob.candidates[e.u]
        ]
        out.add_edge(pos[e.u], pos[e.v], table)
    return out


def labels_of(prob: LabeledProblem, chosen: list[int]) -> dict:
    """The labels a compiled solve of ``prob`` chose, by node."""
    return {n: prob.candidates[n][i] for n, i in zip(prob.candidates, chosen)}
