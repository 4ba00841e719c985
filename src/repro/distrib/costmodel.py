"""Communication-cost model for distribution planning.

The planner must compare hundreds of candidate distributions, so it
cannot afford to re-walk the ADG (re-evaluating affine offsets over
every iteration space) per candidate the way
:func:`repro.machine.executor.measure_traffic` does.  Instead,
:func:`build_profile` walks the aligned ADG **once** and compiles it
into a :class:`CommProfile` — a deduplicated list of move records, each
holding the template coordinates of one object move's elements per
active axis (exactly the arrays :func:`repro.machine.comm.count_move`
would build) plus a multiplicity.  The same pass compiles the records
into the profile's pricing front (:mod:`repro.distrib.vectorized`), so
evaluating candidate distributions — on any machine, in any process the
profile is shipped to — is a handful of vectorized map/abs/sum passes
over arrays that already exist.

A move is a function of a few integers: the extents of the object and
the stride and offset of each template axis at both ends, evaluated at
the iteration point.  Those numbers decide everything but the record:
the window (an axis is monotone in its index, so its two ends bound
it), the element count, whether the move is general (strides differ)
and whether it is free (the same numbers on every active axis are the
same coordinates, which is what a mobile alignment achieves at every
iteration).  Arrays exist only for records: they are built, from those
integers, for a non-empty move whose offsets differ on an active axis
under equal strides, and every element of such a move shifts on it.

Because the records hold the *same coordinates* the executor maps, the
model is exact by construction: for any distribution, the front's price
(:func:`~repro.distrib.vectorized.evaluate_front`) equals the
executor's measured counts, and under the identity distribution the
hop count equals the paper's equation-1 cost.  The end-to-end tests
assert both equalities, against a scalar walk of the records that
lives with them (``tests/conftest.py::evaluate``).

Distribution-independent traffic is folded into the profile up front:

* *general* communication (axis or stride mismatch) moves the object
  regardless of where cells live; it has no routing distance on any
  interconnect, so it contributes moves but zero hops (matching
  :func:`repro.machine.comm.count_move`);
* *broadcasts* along replicated axes cost the object size once.

Hop pricing is topology-aware: the front is priced under the
interconnect metrics of :mod:`repro.topology`, defaulting to the
paper's L1 grid, so one profile serves any number of machine models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..adg.graph import ADG
from ..align.cost import AlignmentMap
from ..align.position import Alignment
from ..cachestats import MISS, BoundedCache
from ..ir.affine import AffineForm, scalar
from ..ir.symbols import LIV
from .vectorized import FrontTensors, compile_front

# Move-record compilation: only a move whose evaluated offsets differ
# between its two ends on an active axis needs coordinate arrays (the
# numbers alone decide free, general and window).  The arrays are pure
# functions of (shape, per-axis evaluated numbers), so they cache across
# classes, edges and programs.  Cached arrays are shared and must be
# treated as read-only by all consumers.
_POSITIONS = BoundedCache("distrib.move_records", maxsize=2048)


def _positions(shape: tuple[int, ...], axis_key: tuple) -> tuple[np.ndarray, ...]:
    """The arrays :func:`repro.machine.comm._axis_positions` builds, from
    the numbers it would evaluate: per template axis of ``axis_key``,
    ``off + stride * i`` along a body axis's array axis (``i`` in
    ``1..extent``), ``off`` on a space axis and zeros on a replicated
    one, each over the whole ``shape``."""
    out = []
    for part in axis_key:
        if part == "R":
            out.append(np.zeros(shape, dtype=np.int64))
        elif part[0] is None:
            out.append(np.full(shape, part[1], dtype=np.int64))
        elif not shape:  # a scalar object on a body axis: index 1
            out.append(np.array(part[2] + part[1], dtype=np.int64))
        else:
            axis, stride, off = part
            line = off + stride * np.arange(1, shape[axis] + 1, dtype=np.int64)
            if len(shape) > 1:
                lines = [1] * len(shape)
                lines[axis] = shape[axis]
                line = np.ascontiguousarray(
                    np.broadcast_to(line.reshape(lines), shape)
                )
            out.append(line)
    return tuple(out)


def _cached_axis_positions(
    shape: tuple[int, ...], axis_key: tuple
) -> tuple[np.ndarray, ...]:
    """Memoized :func:`_positions`.

    Keyed on the object's shape and the alignment's per-axis numbers
    (``axis_key``, the class key's integers): :func:`build_profile`
    looks it up once per distinct class of iteration points that moves.

    Entries are immutable by construction: a **tuple** of **read-only**
    arrays, frozen on the one store path — so no consumer can swap an
    element of a cached container or write through a cached array, and
    an entry re-stored after a :class:`BoundedCache` eviction goes
    through the same freeze and can never hand out writable aliases.
    The mutation-detection tests write through every returned array and
    expect numpy to refuse.
    """
    key = (shape, axis_key)
    pos = _POSITIONS.lookup(key)
    if pos is MISS:
        arrays = _positions(shape, axis_key)
        for a in arrays:
            a.setflags(write=False)  # shared cache entries: enforce read-only
        pos = _POSITIONS.store(key, arrays)
    return pos  # type: ignore[return-value]


@dataclass(frozen=True, order=True)
class CostVector:
    """Modeled communication of one distribution choice.

    Ordering is lexicographic (hops, moved, broadcast): processor hops
    are the paper's grid metric made operational and the planner's
    primary objective; element moves break ties.
    """

    hops: int = 0
    moved: int = 0
    broadcast: int = 0

    def __add__(self, other: "CostVector") -> "CostVector":
        # NotImplemented (not an AttributeError mid-add) for foreign
        # operands, so mixed-type adds fail with a proper TypeError and
        # other types get a chance at their own __radd__.
        if not isinstance(other, CostVector):
            return NotImplemented
        return CostVector(
            self.hops + other.hops,
            self.moved + other.moved,
            self.broadcast + other.broadcast,
        )

    def __radd__(self, other) -> "CostVector":
        # sum(costs) starts from int 0; absorb that identity so cost
        # lists aggregate without a start-value dance.
        if other == 0:
            return self
        return NotImplemented


@dataclass
class MoveRecord:
    """One distinct object move: coordinates per active template axis.

    ``axes`` lists the template axes that participate (both endpoints
    non-replicated); ``src``/``dst`` hold, per listed axis, the template
    coordinate of every element (full-shape integer arrays).  ``count``
    is the number of identical moves folded into this record — static
    offsets repeat the same move every loop iteration, so one record
    (built once per distinct class of iteration points, not once per
    point) routinely stands for O(iterations) moves.
    """

    axes: tuple[int, ...]
    src: tuple[np.ndarray, ...]
    dst: tuple[np.ndarray, ...]
    count: int = 1

    @property
    def elements(self) -> int:
        return int(self.src[0].size) if self.src else 0


@dataclass
class CommProfile:
    """The compiled communication behaviour of one aligned program."""

    template_rank: int
    records: list[MoveRecord] = field(default_factory=list)
    window: tuple[tuple[int, int], ...] = ()  # per-axis (lo, hi) cells
    fixed: CostVector = CostVector()  # general comm: distribution-independent
    broadcast: int = 0
    elements: int = 0  # total elements flowing over all edges
    # General (axis/stride-mismatch) moves, counted per iteration point —
    # unlike TrafficReport.general_edges, which counts edges.
    general_moves: int = 0
    # The pricing front of ``records`` (:mod:`repro.distrib.vectorized`),
    # compiled when the profile is built; excluded from equality/repr.
    front: FrontTensors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.front is None:
            self.front = compile_front(self)

    # -- introspection -----------------------------------------------------

    @property
    def distinct_moves(self) -> int:
        return len(self.records)

    @property
    def total_moves(self) -> int:
        return sum(r.count for r in self.records)

    def describe(self) -> str:
        win = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.window)
        return (
            f"profile: rank={self.template_rank} window=({win}) "
            f"records={self.distinct_moves} (of {self.total_moves} moves) "
            f"fixed_hops={self.fixed.hops} broadcast={self.broadcast}"
        )


def _key_forms(shape, src: Alignment, dst: Alignment):
    """``(what, form)`` for everything the moves of an edge are a
    function of: its tail extents, then the stride and the offset of
    every non-replicated axis of both alignments."""
    for ext in shape:
        yield "extent", ext
    for align in (src, dst):
        for ax in align.axes:
            if ax.is_replicated:
                continue
            if ax.is_body:
                assert ax.stride is not None
                yield "stride", ax.stride
            yield "offset", ax.offset


def _walked_livs(shape, src: Alignment, dst: Alignment) -> set[LIV]:
    """The LIVs the moves of an edge can depend on: those its tail
    ``shape``, its strides and its non-replicated offsets mention."""
    return set().union(*(f.livs() for _, f in _key_forms(shape, src, dst)))


@dataclass(frozen=True)
class EdgeContribution:
    """What one ADG edge adds to a :class:`CommProfile`.

    A pure function of the edge's two alignments, its iteration space
    and its tail shape, hence shared between every edge — of this
    program, of an edit of it — that agrees on those.  Arrays reachable
    from here are read-only.
    """

    elements: int = 0
    # per template axis: None, or (lo, hi) of the coordinates touched
    window: tuple[tuple[int, int] | None, ...] = ()
    general_moved: int = 0
    general_moves: int = 0
    broadcast: int = 0
    # distinct distribution-dependent moves in order of first appearance:
    # (dedup key, active axes, src arrays, dst arrays, multiplicity)
    moves: tuple[tuple, ...] = ()


def _edge_contribution(
    rank: int, src: Alignment, dst: Alignment, space, tail
) -> EdgeContribution:
    """Compile one edge with alignments ``src`` → ``dst``.

    The walk covers the projection of the edge's space onto the LIVs
    its shape and alignments mention, every point of it standing for
    ``mult`` identical moves.  Points are grouped by the numbers the
    move is a function of.  Which of those numbers each class test
    reads is decided once per edge: the window spans of both ends (a
    span the ends share is one span), the stride pairs that can differ
    (a form both ends share is one slot, never compared) and the offset
    pairs on the active axes.  Per class, integer compares and min/max
    remain; arrays are built, from the class's own numbers, only for a
    non-empty class whose offsets differ on an active axis.
    """
    if space.is_empty():
        return EdgeContribution()
    walk = space.projected(_walked_livs(tail.shape, src, dst))
    mult = space.count // walk.count
    # The distinct forms, numbered, each as its constant and its
    # (position in walk.livs, coefficient) terms.
    position = {liv: j for j, liv in enumerate(walk.livs)}
    slot_of: dict[AffineForm, int] = {}
    table = []
    for what, form in _key_forms(tail.shape, src, dst):
        if form in slot_of:
            continue
        try:
            terms = tuple((position[v], c) for v, c in form.coeffs.items())
        except KeyError as exc:
            raise KeyError(
                f"unbound LIV {exc.args[0].name} in evaluation"
            ) from None
        slot_of[form] = len(table)
        table.append((what, form, form.const, terms))
    # the values of all forms at a point -> moves
    classes: dict[tuple, int] = {}
    for point in product(*walk.triplets):
        vals = []
        for what, form, v, terms in table:
            for j, c in terms:
                v += c * point[j]
            if type(v) is not int:
                v = scalar(v)
            if type(v) is not int or (v < 0 and what == "extent"):
                raise ValueError(
                    f"{what} {form} evaluates to {v} at "
                    f"{dict(zip(walk.livs, point))}"
                )
            vals.append(v)
        key = tuple(vals)
        classes[key] = classes.get(key, 0) + mult
    # Where each class test reads its numbers from, as slots of a class
    # key.  Per end and template axis: "R" (replicated), (array axis,
    # stride slot, offset slot) on a body axis, (None, offset slot) on a
    # space axis.
    shape_slots = [slot_of[ext] for ext in tail.shape]
    key_slots = [
        [
            "R"
            if ax.is_replicated
            else (ax.array_axis, slot_of[ax.stride], slot_of[ax.offset])
            if ax.is_body
            else (None, slot_of[ax.offset])
            for ax in align.axes
        ]
        for align in (src, dst)
    ]
    pairs = list(zip(src.axes, dst.axes))
    broadcasts = sum(
        a2.is_replicated and not a1.is_replicated for a1, a2 in pairs
    )
    active = tuple(
        t
        for t, (a1, a2) in enumerate(pairs)
        if not (a1.is_replicated or a2.is_replicated)
    )
    # Window spans (same rule as executor.coordinate_bounds): min/max
    # coordinate of either end on every non-replicated axis.  A body
    # axis is monotone in its index, so its extremes are its two ends:
    # (axis, extent slot, stride slot, offset slot), the extent None on
    # a scalar object (one element); (axis, None, None, offset slot) on
    # a space axis.
    spans: list[tuple] = []
    for parts in key_slots:
        for t, p in enumerate(parts):
            if p == "R":
                continue
            if p[0] is None:
                span = (t, None, None, p[1])
            else:
                extent = shape_slots[p[0]] if shape_slots else None
                span = (t, extent, p[1], p[2])
            if span not in spans:
                spans.append(span)
    # A move is general when its axes differ (every class) or a body
    # axis's strides differ; it is free when, besides, its offsets agree
    # on every active axis (the same numbers: the same coordinates).
    src_slots, dst_slots = key_slots
    strides: list[tuple[int, int]] | None = None
    offsets: list[tuple[int, int]] = []
    if src.axis_signature() == dst.axis_signature():
        strides = [
            (src_slots[t][1], dst_slots[t][1])
            for t, ax in enumerate(src.axes)
            if ax.is_body and src_slots[t][1] != dst_slots[t][1]
        ]
        offsets = [
            (src_slots[t][-1], dst_slots[t][-1])
            for t in active
            if src_slots[t][-1] != dst_slots[t][-1]
        ]
    elements = general_moved = general_moves = broadcast = 0
    lo: list[int | None] = [None] * rank
    hi: list[int | None] = [None] * rank
    distinct: dict[tuple, list] = {}
    for vals, moves in classes.items():
        n = 1
        for i in shape_slots:
            n *= vals[i]
        elements += n * moves
        if n:  # an empty object touches nothing
            for t, e, s, o in spans:
                a_lo = a_hi = vals[o]
                if s is not None:
                    stride = vals[s]
                    a_hi += stride * (1 if e is None else vals[e])
                    a_lo += stride
                    if a_hi < a_lo:
                        a_lo, a_hi = a_hi, a_lo
                if lo[t] is None or a_lo < lo[t]:
                    lo[t] = a_lo
                if hi[t] is None or a_hi > hi[t]:
                    hi[t] = a_hi
        if strides is None or any(vals[a] != vals[b] for a, b in strides):
            # General comm has no routing distance: moves, not hops
            # (mirrors count_move, keeping topology costs well-defined).
            general_moved += n * moves
            general_moves += moves
            continue
        broadcast += broadcasts * n * moves
        if not n or all(vals[a] == vals[b] for a, b in offsets):
            # The same numbers are the same coordinates, and an empty
            # object has none.  Otherwise an active axis's offsets
            # differ under equal strides: every element moves on it.
            continue
        shape = tuple([vals[i] for i in shape_slots])
        src_pos, dst_pos = (
            _cached_axis_positions(
                shape,
                tuple(
                    [
                        p if p == "R" else (p[0], *[vals[i] for i in p[1:]])
                        for p in parts
                    ]
                ),
            )
            for parts in key_slots
        )
        s = tuple(np.ascontiguousarray(src_pos[t]) for t in active)
        d = tuple(np.ascontiguousarray(dst_pos[t]) for t in active)
        key = (
            active,
            tuple(a.shape for a in s),
            tuple(a.tobytes() for a in s),
            tuple(a.tobytes() for a in d),
        )
        seen = distinct.get(key)
        if seen is None:
            for a in s + d:
                # ascontiguousarray copies a non-contiguous input, and
                # the copy is writable; records share these arrays.
                a.setflags(write=False)
            distinct[key] = [active, s, d, moves]
        else:
            seen[3] += moves
    return EdgeContribution(
        elements,
        tuple(None if l is None else (l, h) for l, h in zip(lo, hi)),
        general_moved,
        general_moves,
        broadcast,
        tuple((key, *move) for key, move in distinct.items()),
    )


def build_profile(
    adg: ADG, alignments: AlignmentMap, memo=None
) -> CommProfile:
    """Compile an aligned ADG into a :class:`CommProfile`.

    Mirrors the classification of :func:`repro.machine.comm.count_move`
    move for move; the only difference is that distribution-dependent
    moves are *recorded* (coordinates kept) instead of counted under one
    fixed distribution.

    Each distinct edge — distinct in (tail alignment, head alignment,
    space, tail shape) — is compiled once (:func:`_edge_contribution`)
    and kept in ``memo``, a mapping the caller may share between
    programs (``None``: one for this call).  What is left here is the
    fold over ``adg.edges``, which keeps the order in which distinct
    moves first appear, and then the profile's pricing front, compiled
    once from the finished records (:class:`CommProfile` builds it).
    """
    if memo is None:
        memo = {}
    rank = adg.template_rank
    lo: list[int | None] = [None] * rank
    hi: list[int | None] = [None] * rank
    elements = general_moves = broadcast = general_moved = 0
    dedup: dict[tuple, MoveRecord] = {}
    for e in adg.edges:
        src = alignments[e.tail.key]
        dst = alignments[e.head.key]
        key = ("edge", rank, src, dst, e.space, e.tail.shape)
        c = memo.get(key)
        if c is None:
            c = memo[key] = _edge_contribution(rank, src, dst, e.space, e.tail)
        elements += c.elements
        general_moves += c.general_moves
        broadcast += c.broadcast
        general_moved += c.general_moved
        for t, bounds in enumerate(c.window):
            if bounds is not None:
                lo[t] = bounds[0] if lo[t] is None else min(lo[t], bounds[0])
                hi[t] = bounds[1] if hi[t] is None else max(hi[t], bounds[1])
        for move_key, active, s, d, moves in c.moves:
            rec = dedup.get(move_key)
            if rec is None:
                dedup[move_key] = MoveRecord(active, s, d, moves)
            else:
                rec.count += moves
    return CommProfile(
        template_rank=rank,
        records=list(dedup.values()),
        window=tuple(
            (0, 0) if l is None else (l, h)  # type: ignore[misc]
            for l, h in zip(lo, hi)
        ),
        fixed=CostVector(moved=general_moved),
        broadcast=broadcast,
        elements=elements,
        general_moves=general_moves,
    )
