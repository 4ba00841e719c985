"""Mobile stride (and axis) alignment — Section 3.

The discrete metric makes axis/stride alignment a labeling problem: each
port gets a *skeleton label* (axis mapping + stride function per template
axis, offsets ignored), an ADG edge pays its total data weight unless its
two ports carry equal labels, and node constraints relate the labels of a
node's ports exactly.  Mobile labels are affine in the LIVs: a section
``A(1:20*k:k)`` relates the section's stride function to ``k * stride_A``,
which is precisely how the mobile candidate ``V(i) at [k*i]`` of
Example 5 enters the candidate sets.

Following the paper, the weights are the closed-form sums of the data
weight over the edge's iteration space ("Since the weight is polynomial
in the LIVs, the sum can be evaluated in closed form"), and the problem
is solved by compact dynamic programming: candidate sets are generated by
constraint propagation from canonical source alignments, the label graph
is solved exactly on its spanning-tree structure and polished by
coordinate descent (the general problem is NP-hard).

The labeling is compiled once per solve: every distinct skeleton gets an
integer id, each label transform runs once per id, and each label edge is
priced once into a table of integer numerators that the solvers of
:mod:`repro.solvers.dp` read (see :class:`AxisStrideSolver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import islice, permutations
from math import lcm
from typing import Callable, Iterable, Optional

from ..adg.graph import ADG, ADGNode, Port
from ..adg.nodes import (
    NodeKind,
    ReducePayload,
    SectionPayload,
    SpreadPayload,
    SubscriptSpec,
    TransformerPayload,
)
from ..ir.affine import AffineForm, Scalar, exact_div, scalar
from ..ir.symbols import LIV
from ..solvers.dp import DiscreteLabelingProblem
from .cost import cached_moments
from .position import Alignment, AxisAlignment

# A skeleton label is an Alignment whose offsets are all zero; only the
# axis mapping and stride functions carry information.
Skeleton = Alignment


def _skeleton(axes: Iterable[tuple[Optional[int], Optional[AffineForm]]]) -> Skeleton:
    return Alignment(
        tuple(
            AxisAlignment(a, s, AffineForm(0))
            for a, s in axes
        )
    )


def _integral_strides(lab: Skeleton) -> bool:
    return all(
        ax.stride.is_integral() for ax in lab.axes if ax.is_body and ax.stride is not None
    )


def canonical_skeletons(
    rank: int, template_rank: int, limit: int | None = None
) -> list[Skeleton]:
    """The injective axis embeddings with stride 1 (source candidates),
    in ``permutations`` order: all t!/(t-r)! of them, or the first
    ``limit``, building no more than it returns."""
    out = []
    for perm in islice(permutations(range(template_rank), rank), limit):
        axes: list[tuple[Optional[int], Optional[AffineForm]]] = [
            (None, None)
        ] * template_rank
        for a, tau in enumerate(perm):
            axes[tau] = (a, AffineForm(1))
        out.append(_skeleton(axes))
    return out


# ---------------------------------------------------------------------------
# Label transforms through node constraints
# ---------------------------------------------------------------------------


def section_forward(arr: Skeleton, subs: tuple[SubscriptSpec, ...]) -> Skeleton | None:
    """Array label -> section label (kept axes renumbered in order)."""
    new_axis_of: dict[int, int] = {}
    next_axis = 0
    for a, spec in enumerate(subs):
        if spec.kind in ("full", "slice"):
            new_axis_of[a] = next_axis
            next_axis += 1
    axes: list[tuple[Optional[int], Optional[AffineForm]]] = []
    for tau, ax in enumerate(arr.axes):
        if not ax.is_body:
            axes.append((None, None))
            continue
        a = ax.array_axis
        assert a is not None and ax.stride is not None
        spec = subs[a]
        if spec.kind == "index":
            axes.append((None, None))
        elif spec.kind == "full":
            axes.append((new_axis_of[a], ax.stride))
        else:
            assert spec.step is not None
            try:
                stride = _mul_affine(spec.step, ax.stride)
            except ValueError:
                return None
            axes.append((new_axis_of[a], stride))
    return _skeleton(axes)


def section_backward(sec: Skeleton, subs: tuple[SubscriptSpec, ...], arr_rank: int) -> Skeleton | None:
    """Section label -> array label, when strides divide cleanly."""
    kept = [a for a, spec in enumerate(subs) if spec.kind in ("full", "slice")]
    sec_axis_to_arr = {j: a for j, a in enumerate(kept)}
    axes: list[tuple[Optional[int], Optional[AffineForm]]] = []
    placed: set[int] = set()
    for tau, ax in enumerate(sec.axes):
        if not ax.is_body:
            axes.append((None, None))
            continue
        j = ax.array_axis
        assert j is not None and ax.stride is not None
        a = sec_axis_to_arr[j]
        spec = subs[a]
        if spec.kind == "full":
            stride = ax.stride
        else:
            assert spec.step is not None
            stride = _div_affine(ax.stride, spec.step)
            if stride is None:
                return None
        axes.append((a, stride))
        placed.add(a)
    # Array axes dropped by index subscripts must sit somewhere: give each
    # remaining body axis a free template slot with stride 1.
    missing = [a for a in range(arr_rank) if a not in placed]
    result = list(axes)
    free = [tau for tau, (a, _) in enumerate(result) if a is None]
    if len(missing) > len(free):
        return None
    for a, tau in zip(missing, free):
        result[tau] = (a, AffineForm(1))
    return _skeleton(result)


def _mul_affine(a: AffineForm, b: AffineForm) -> AffineForm:
    if a.is_constant:
        return b * a.const
    if b.is_constant:
        return a * b.const
    raise ValueError("product of two mobile strides is not affine")


def _div_affine(num: AffineForm, den: AffineForm) -> AffineForm | None:
    """num / den when the quotient is affine; None otherwise."""
    if den.is_constant:
        if den.const == 0:
            return None
        return num / den.const
    # den mobile: quotient affine only if num = c * den for constant c.
    livs = den.livs()
    if num.livs() != livs or len(livs) != 1:
        if num.is_constant and num.const == 0:
            return AffineForm(0)
        return None
    k = next(iter(livs))
    if den.coeff(k) == 0:
        return None
    c = exact_div(num.coeff(k), den.coeff(k))
    if num - den * c == AffineForm(0):
        return AffineForm(c)
    return None


def transpose_transform(lab: Skeleton) -> Skeleton:
    axes = []
    for ax in lab.axes:
        if ax.is_body:
            assert ax.array_axis in (0, 1)
            axes.append((1 - ax.array_axis, ax.stride))
        else:
            axes.append((None, None))
    return _skeleton(axes)


def spread_forward(inp: Skeleton, dim: int) -> list[Skeleton]:
    """Input label -> candidate output labels (new axis on each space axis)."""
    out = []
    d_new = dim - 1

    def renum(a: int) -> int:
        return a + 1 if a >= d_new else a

    space_taus = [tau for tau, ax in enumerate(inp.axes) if not ax.is_body]
    for tau_star in space_taus:
        axes: list[tuple[Optional[int], Optional[AffineForm]]] = []
        for tau, ax in enumerate(inp.axes):
            if tau == tau_star:
                axes.append((d_new, AffineForm(1)))
            elif ax.is_body:
                assert ax.array_axis is not None
                axes.append((renum(ax.array_axis), ax.stride))
            else:
                axes.append((None, None))
        out.append(_skeleton(axes))
    return out


def spread_backward(out_lab: Skeleton, dim: int) -> Skeleton | None:
    d_new = dim - 1
    axes: list[tuple[Optional[int], Optional[AffineForm]]] = []
    for ax in out_lab.axes:
        if not ax.is_body:
            axes.append((None, None))
            continue
        a = ax.array_axis
        assert a is not None
        if a == d_new:
            axes.append((None, None))
        else:
            axes.append((a - 1 if a > d_new else a, ax.stride))
    return _skeleton(axes)


def reduce_forward(inp: Skeleton, dim: int) -> Skeleton:
    d_red = dim - 1
    axes: list[tuple[Optional[int], Optional[AffineForm]]] = []
    for ax in inp.axes:
        if not ax.is_body:
            axes.append((None, None))
            continue
        a = ax.array_axis
        assert a is not None
        if a == d_red:
            axes.append((None, None))
        else:
            axes.append((a - 1 if a > d_red else a, ax.stride))
    return _skeleton(axes)


def reduce_backward(out_lab: Skeleton, dim: int) -> list[Skeleton]:
    d_red = dim - 1

    def renum(a: int) -> int:
        return a + 1 if a >= d_red else a

    space_taus = [tau for tau, ax in enumerate(out_lab.axes) if not ax.is_body]
    out = []
    for tau_star in space_taus:
        axes: list[tuple[Optional[int], Optional[AffineForm]]] = []
        for tau, ax in enumerate(out_lab.axes):
            if tau == tau_star:
                axes.append((d_red, AffineForm(1)))
            elif ax.is_body:
                assert ax.array_axis is not None
                axes.append((renum(ax.array_axis), ax.stride))
            else:
                axes.append((None, None))
        out.append(_skeleton(axes))
    return out


def substitute_liv(lab: Skeleton, liv: LIV, repl: AffineForm) -> Skeleton:
    axes = []
    for ax in lab.axes:
        if ax.is_body:
            assert ax.stride is not None
            axes.append((ax.array_axis, ax.stride.substitute({liv: repl})))
        else:
            axes.append((None, None))
    return _skeleton(axes)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


@dataclass
class AxisStrideResult:
    """Port skeletons plus the discrete-metric cost actually incurred."""

    skeletons: dict[str, Skeleton]  # keyed by Port.key
    port_by_key: dict[str, Port]
    cost: Scalar
    exact: bool

    def of(self, p: Port) -> Skeleton:
        return self.skeletons[p.key]


class AxisStrideSolver:
    """Compact DP over skeleton labels (Section 3).

    One :meth:`solve` compiles the labeling once, over integer ids:

    - each distinct skeleton is numbered in the order it is first built,
      with its rank and stride integrality worked out once; a port's
      candidates are an id list (the order they were accepted in) and an
      id set (membership), mirrored as the skeleton lists of
      :attr:`candidates`;
    - each node's label maps (input to output and back) are compiled
      once, each map runs once per id, and candidate propagation and
      pricing share its numbered image;
    - every label edge, a functional node constraint or a data edge, is
      priced once into a table of exact integer numerators over one
      common denominator, filled from the image of each candidate; the
      solvers of :mod:`repro.solvers.dp` only read those tables.

    Ids and tables never leave the solver: the result holds skeletons.  "Exact" (``AxisStrideResult.exact``) is exact over the
    candidate sets: at most ``max_candidates`` (64) per port, and a
    source seeded with the first 64 of its axis embeddings in
    ``permutations`` order.  Above template rank 4 that seed depends on
    the order of the template axes.
    """

    def __init__(self, adg: ADG, max_candidates: int = 64, rounds: int = 16) -> None:
        self.adg = adg
        self.max_candidates = max_candidates
        self.rounds = rounds
        self.candidates: dict[str, list[Skeleton]] = {}
        self.port_by_key: dict[str, Port] = {}
        # (use site, source Port.key) -> how many of the source's
        # candidates that site has read; see _fresh.
        self._offered: dict[tuple[object, str], int] = {}

    # -- numbered skeletons ------------------------------------------------------

    def _reset(self, keep: bool = False) -> None:
        """Forget every numbered skeleton and empty each port's
        candidates, or (``keep``) number the hand-edited lists afresh."""
        self._labels: list[Skeleton] = []  # id -> skeleton
        self._id_of: dict[Skeleton, int] = {}
        self._fit: list[int] = []  # id -> rank, or -1 if a stride is fractional
        self._images: dict[tuple[Callable, int], list[int | None]] = {}
        self._relations: dict[ADGNode, tuple | None] = {}
        self._ids: dict[str, list[int]] = {}
        self._has: dict[str, set[int]] = {}
        # The use sites (see _fresh) that read a port, and those with a
        # port that gained labels since they read it: only those can offer.
        self._readers: dict[str, list[object]] = {}
        self._stale: set[object] = set()
        for p in self.adg.ports():
            self.port_by_key[p.key] = p
            self._readers[p.key] = [p.node]
            if keep:
                ids = list(dict.fromkeys(map(self._id, self.candidates[p.key])))
            else:
                ids, self.candidates[p.key] = [], []
            self._ids[p.key], self._has[p.key] = ids, set(ids)
        for e in self.adg.edges:
            self._readers[e.tail.key].append(e.eid)
            self._readers[e.head.key].append(e.eid)

    def _id(self, lab: Skeleton) -> int:
        i = self._id_of.get(lab)
        if i is None:
            i = self._id_of[lab] = len(self._labels)
            self._labels.append(lab)
            self._fit.append(lab.rank if _integral_strides(lab) else -1)
        return i

    def _map(self, fn: Callable | None, ids: list[int]) -> list:
        """The numbered images of ``ids`` under one node's compiled map
        ``fn`` (None: the identity), each computed once; a map with
        several images (a spread's new axis) contributes all of them."""
        if fn is None:
            return ids
        memo = self._images
        out: list[int | None] = []
        for i in ids:
            img = memo.get((fn, i))
            if img is None:
                lab = fn(self._labels[i])
                if isinstance(lab, list):
                    img = [self._id(l) for l in lab]
                else:
                    img = [None if lab is None else self._id(lab)]
                memo[(fn, i)] = img
            out += img
        return out

    # -- candidate generation --------------------------------------------------

    def _seed(self) -> None:
        t = self.adg.template_rank
        self._offered.clear()
        self._reset()
        for n in self.adg.nodes:
            if n.kind is NodeKind.SOURCE:
                out = n.outputs()[0]
                # A fresh port keeps the first max_candidates distinct,
                # integral, rank-matching labels offered: every embedding
                # is one, so those are the first max_candidates built.
                seeds = canonical_skeletons(out.rank, t, self.max_candidates)
                self._offer(out, [self._id(l) for l in seeds])

    def _offer(self, p: Port, ids: Iterable[int | None]) -> bool:
        cands, has, labels = self._ids[p.key], self._has[p.key], self.candidates[p.key]
        fit = self._fit
        changed = False
        for i in ids:
            if len(cands) >= self.max_candidates:
                break
            # Refused: rank mismatch, or a fractional stride (template
            # cells are integral; 1/2-strides are illegal).
            if i is None or i in has or fit[i] != p.rank:
                continue
            cands.append(i)
            has.add(i)
            labels.append(self._labels[i])
            changed = True
        if changed:
            self._stale.update(self._readers[p.key])
        return changed

    def _fresh(self, site: object, src: Port) -> list[int]:
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
        cands = self._ids[src.key]
        key = (site, src.key)
        start = self._offered.get(key, 0)
        self._offered[key] = len(cands)
        return cands[start:]

    def _relation(self, n: ADGNode):
        """``(inp, out, forward, backward, priced_backward)`` for a node
        that relates the labels of one input and one output, compiled
        once per solve; None for any other node.

        ``forward`` maps an input label to the output's label (or list of
        candidates), ``backward`` an output label to the input's; None is
        the identity.  The node's hard constraint is ``out ==
        forward(inp)``, or ``inp == backward(out)`` when
        ``priced_backward`` (a spread's forward map has several images, a
        loop entry's is the identity).
        """
        if n in self._relations:
            return self._relations[n]
        kind, payload = n.kind, n.payload
        ports = {p.name: p for p in n.ports}
        rel = None
        if kind is NodeKind.SECTION_ASSIGN and "value" in ports:
            assert isinstance(payload, SectionPayload)
            subs, arr = payload.subscripts, ports["array"]
            rel = (
                arr,
                ports["value"],
                lambda l: section_forward(l, subs),
                lambda l: section_backward(l, subs, arr.rank),
                False,
            )
        elif kind is NodeKind.TRANSPOSE:
            # Its own inverse: one map, so one image per label, both ways.
            inp, out = n.inputs()[0], n.outputs()[0]
            rel = (inp, out, transpose_transform, transpose_transform, False)
        elif kind is NodeKind.SECTION:
            assert isinstance(payload, SectionPayload)
            subs = payload.subscripts
            inp, out = n.inputs()[0], n.outputs()[0]
            rel = (
                inp,
                out,
                lambda l: section_forward(l, subs),
                lambda l: section_backward(l, subs, inp.rank),
                False,
            )
        elif kind is NodeKind.SPREAD:
            assert isinstance(payload, SpreadPayload)
            dim = payload.dim
            rel = (
                n.inputs()[0],
                n.outputs()[0],
                lambda l: spread_forward(l, dim),
                lambda l: spread_backward(l, dim),
                True,
            )
        elif kind is NodeKind.REDUCE:
            assert isinstance(payload, ReducePayload)
            outs, dim = n.outputs(), payload.dim
            if outs and dim is not None:
                rel = (
                    n.inputs()[0],
                    outs[0],
                    lambda l: reduce_forward(l, dim),
                    lambda l: reduce_backward(l, dim),
                    False,
                )
        elif kind is NodeKind.TRANSFORMER:
            assert isinstance(payload, TransformerPayload)
            inp, out = n.inputs()[0], n.outputs()[0]
            k, v = payload.liv, payload.value
            if payload.kind == "entry":
                # f_out(k=lo) = f_in: constants pass through; backward
                # evaluates the mobile label at the first iteration.
                at = AffineForm(v)
                rel = (inp, out, None, lambda l: substitute_liv(l, k, at), True)
            elif payload.kind == "exit":
                at = AffineForm(v)
                rel = (inp, out, lambda l: substitute_liv(l, k, at), None, False)
            else:  # loop_back: f_out(k) = f_in(k - step)
                back, ahead = AffineForm.variable(k) - v, AffineForm.variable(k) + v
                rel = (
                    inp,
                    out,
                    lambda l: substitute_liv(l, k, back),
                    lambda l: substitute_liv(l, k, ahead),
                    False,
                )
        self._relations[n] = rel
        return rel

    def _propagate_node(self, n: ADGNode) -> bool:
        if n not in self._stale:
            return False  # no port gained a label since n read it
        self._stale.discard(n)
        changed = False
        kind = n.kind
        offer, fresh, image = self._offer, self._fresh, self._map
        if kind in (
            NodeKind.ELEMENTWISE,
            NodeKind.MERGE,
            NodeKind.FANOUT,
            NodeKind.BRANCH,
        ):
            pool = [l for p in n.ports for l in fresh(n, p)]
            for p in n.ports:
                changed |= offer(p, pool)
        elif kind in (NodeKind.SECTION_ASSIGN, NodeKind.GATHER):
            ports = {p.name: p for p in n.ports}
            if kind is NodeKind.GATHER:
                joined = ports["index"], ports["out"]
            else:
                joined = ports["array"], ports["out"]
            pool = fresh(n, joined[0]) + fresh(n, joined[1])
            for p in joined:
                changed |= offer(p, pool)
            rel = self._relation(n)
            if rel is not None:
                _, value, forward, backward, _ = rel
                changed |= offer(value, image(forward, pool))
                gained = image(backward, fresh(n, value))
                for p in joined:
                    changed |= offer(p, gained)
        else:
            rel = self._relation(n)
            if rel is not None:
                inp, out, forward, backward, _ = rel
                changed |= offer(out, image(forward, fresh(n, inp)))
                changed |= offer(inp, image(backward, fresh(n, out)))
        return changed

    def _propagate_edges(self) -> bool:
        changed = False
        stale = self._stale
        for e in self.adg.edges:
            if e.eid not in stale:
                continue
            stale.discard(e.eid)
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
            if not self._ids[p.key]:
                labels = canonical_skeletons(p.rank, t, self.max_candidates) or [
                    _skeleton([(None, None)] * t)
                ]
                ids = self._ids[p.key] = [self._id(l) for l in labels]
                self._has[p.key] = set(ids)
                self.candidates[p.key] = [self._labels[i] for i in ids]

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
        else:
            self._reset(keep=True)
        cls = self._identity_classes()

        # Class candidate sets: intersection of members (equality classes
        # must share one label); union as a fallback if propagation left
        # the intersection empty.
        members: dict[str, list[str]] = {}
        for pk, root in cls.items():
            members.setdefault(root, []).append(pk)
        class_ids: dict[str, list[int]] = {}
        for root, pks in members.items():
            inter = self._ids[pks[0]]
            for pk in pks[1:]:
                has = self._has[pk]
                inter = [i for i in inter if i in has]
            if not inter:
                inter = list(dict.fromkeys(i for pk in pks for i in self._ids[pk]))
            class_ids[root] = inter
        node_of = {root: k for k, root in enumerate(class_ids)}

        weights = [self._edge_weight(e) for e in self.adg.edges]
        den = lcm(*(w.denominator for w in weights))
        big = sum(weights) * 1000 + 1
        prob = DiscreteLabelingProblem(map(len, class_ids.values()), den)
        # Functional node constraints between classes.
        for n in self.adg.nodes:
            rel = self._relation(n)
            if rel is None:
                continue
            p, q, forward, backward, priced_backward = rel
            rp, rq = cls[p.key], cls[q.key]
            if rp == rq:
                continue
            image = partial(self._map, backward if priced_backward else forward)
            table = _priced(
                class_ids[rp], class_ids[rq], big * den, image, priced_backward
            )
            prob.add_edge(node_of[rp], node_of[rq], table)
        # Soft data edges between classes.
        for e, w in zip(self.adg.edges, weights):
            rt, rh = cls[e.tail.key], cls[e.head.key]
            if rt == rh:
                continue  # same class: always aligned, cost 0
            table = _priced(class_ids[rt], class_ids[rh], w * den)
            prob.add_edge(node_of[rt], node_of[rh], table)

        space = 1
        for size in prob.sizes:
            space *= size
        if space <= 200_000:
            result = prob.solve_exhaustive()
        else:
            result = prob.solve()
        if result.cost >= big:
            raise RuntimeError(
                "axis/stride labeling violates a node constraint; "
                "candidate generation needs more rounds/candidates"
            )
        chosen = [self._labels[ids[i]] for ids, i in zip(class_ids.values(), result.labels)]
        skeletons = {pk: chosen[node_of[root]] for pk, root in cls.items()}
        return AxisStrideResult(
            skeletons, dict(self.port_by_key), result.cost, result.exact
        )

def _priced(
    tails: list[int],
    heads: list[int],
    weight: Scalar,
    image: Callable[[list[int]], list] | None = None,
    backward: bool = False,
) -> list[list[int]]:
    """The integer table of a label edge: ``weight`` (a whole number),
    except 0 where the head's label is the image of the tail's (or,
    ``backward``, the tail's is the image of the head's).  The identity
    when ``image`` is None.  One image per candidate, not per pair."""
    w = int(weight)
    table = [[w] * len(heads) for _ in tails]
    if backward:
        assert image is not None
        at = {l: i for i, l in enumerate(tails)}
        for j, l in enumerate(image(heads)):
            i = at.get(l)
            if i is not None:
                table[i][j] = 0
    else:
        at = {l: j for j, l in enumerate(heads)}
        for i, l in enumerate(tails if image is None else image(tails)):
            j = at.get(l)
            if j is not None:
                table[i][j] = 0
    return table


def solve_axis_stride(adg: ADG, **kw) -> AxisStrideResult:
    """Solve the axis + mobile-stride alignment problem for ``adg``."""
    return AxisStrideSolver(adg, **kw).solve()
