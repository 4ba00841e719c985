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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations
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
    """Compact DP over skeleton labels (Section 3)."""

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
                # One image per target: ``AffineForm`` memoizes its
                # evaluations per instance, so which ports share a label
                # object shows in the ``affine.evaluate`` cell.
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

        prob = DiscreteLabelingProblem()
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


def solve_axis_stride(adg: ADG, **kw) -> AxisStrideResult:
    """Solve the axis + mobile-stride alignment problem for ``adg``."""
    return AxisStrideSolver(adg, **kw).solve()
