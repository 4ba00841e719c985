"""Unit tests for the distribution-planner cost model."""

import inspect
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from costmodel_reference import reference_edge_contribution
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis_hops, evaluate, reference_programs, with_axis
from repro import cachestats
from repro.align import align_program
from repro.align.position import Alignment, AxisAlignment, ReplicatedExtent
from repro.distrib import CostVector, build_profile
from repro.distrib.costmodel import (
    CommProfile,
    MoveRecord,
    _edge_contribution,
    _walked_livs,
)
from repro.ir import LIV, AffineForm, IterationSpace, Triplet
from repro.lang import parse, programs
from repro.lang.generate import FAMILIES, generate_scenario
from repro.machine import (
    Block,
    Cyclic,
    Distribution,
    coordinate_bounds,
    measure_traffic,
)
from repro.machine.comm import _axis_positions
from repro.machine.executor import _shape_at


def _profile(prog, **kw):
    plan = align_program(prog, **kw)
    return plan, build_profile(plan.adg, plan.alignments)


class TestCostVector:
    def test_ordering_is_hops_first(self):
        assert CostVector(1, 100, 100) < CostVector(2, 0, 0)
        assert CostVector(1, 2, 0) < CostVector(1, 3, 0)

    def test_addition(self):
        c = CostVector(1, 2, 3) + CostVector(10, 20, 30)
        assert c == CostVector(11, 22, 33)

    def test_add_foreign_type_is_a_typeerror_not_a_crash(self):
        # __add__ must return NotImplemented (not raise AttributeError
        # mid-expression) so Python can try the other operand and report
        # the standard unsupported-operand TypeError.
        assert CostVector(1, 2, 3).__add__(5) is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            CostVector(1, 2, 3) + 5
        with pytest.raises(TypeError, match="unsupported operand"):
            CostVector(1, 2, 3) + (1, 2, 3)

    def test_radd_zero_makes_sum_work(self):
        # sum() seeds with int 0; __radd__ absorbs it so cost lists fold
        # without a start= argument.
        costs = [CostVector(1, 2, 3), CostVector(10, 20, 30), CostVector(100, 0, 0)]
        assert sum(costs) == CostVector(111, 22, 33)
        assert 0 + CostVector(4, 5, 6) == CostVector(4, 5, 6)
        # Only the sum() seed is special: any other left operand still fails.
        with pytest.raises(TypeError, match="unsupported operand"):
            1 + CostVector(4, 5, 6)

    def test_sum_of_empty_list_is_plain_zero(self):
        assert sum([]) == 0


class TestBuildProfile:
    def test_window_matches_executor_bounds(self):
        plan, profile = _profile(programs.figure1(n=12), replication=False)
        assert profile.window == coordinate_bounds(plan.adg, plan.alignments)
        assert all(hi >= lo for lo, hi in profile.window)

    def test_static_moves_are_deduplicated(self):
        # The stencil repeats the same shifted move every iteration:
        # many moves, few distinct records.
        _, profile = _profile(
            programs.stencil_sweep(n=32, iters=8), replication=False
        )
        assert profile.total_moves > profile.distinct_moves

    def test_mobile_moves_are_not_collapsed(self):
        # figure1's loop-carried V shift changes coordinates with k.
        _, profile = _profile(programs.figure1(n=8), replication=False)
        assert profile.distinct_moves > 1

    def test_broadcast_folded_in(self):
        plan, profile = _profile(programs.figure4(nt=8, nk=6))
        measured = measure_traffic(
            plan.adg, plan.alignments, Distribution.identity(profile.template_rank)
        )
        assert profile.broadcast == measured.broadcast_elements == 8

    def test_describe_mentions_counts(self):
        _, profile = _profile(programs.example1(n=16))
        text = profile.describe()
        assert "records=" in text and "window=" in text


def reference_profile(adg, alignments) -> CommProfile:
    """The per-point walker :func:`build_profile` replaced, kept as the
    oracle: it visits every point of every edge's iteration space and
    shares no code with the projected, class-grouped walk."""
    rank = adg.template_rank
    profile = CommProfile(template_rank=rank)
    lo = [None] * rank
    hi = [None] * rank
    dedup = {}
    for e in adg.edges:
        src = alignments[e.tail.key]
        dst = alignments[e.head.key]
        for env in e.space.points():
            shape = _shape_at(e.tail, env)
            n = int(np.prod(shape)) if shape else 1
            profile.elements += n
            src_pos = _axis_positions(src, shape, env)
            dst_pos = _axis_positions(dst, shape, env)
            for align, pos in ((src, src_pos), (dst, dst_pos)):
                for t, (ax, arr) in enumerate(zip(align.axes, pos)):
                    if ax.is_replicated or arr.size == 0:
                        continue
                    a_lo, a_hi = int(arr.min()), int(arr.max())
                    lo[t] = a_lo if lo[t] is None else min(lo[t], a_lo)
                    hi[t] = a_hi if hi[t] is None else max(hi[t], a_hi)
            general = src.axis_signature() != dst.axis_signature() or any(
                a1.is_body and a1.stride.evaluate(env) != a2.stride.evaluate(env)
                for a1, a2 in zip(src.axes, dst.axes)
            )
            if general:
                profile.fixed = profile.fixed + CostVector(moved=n)
                profile.general_moves += 1
                continue
            for a1, a2 in zip(src.axes, dst.axes):
                if a2.is_replicated and not a1.is_replicated:
                    profile.broadcast += n
            active = tuple(
                t
                for t, (a1, a2) in enumerate(zip(src.axes, dst.axes))
                if not (a1.is_replicated or a2.is_replicated)
            )
            if not active:
                continue
            s = tuple(np.ascontiguousarray(src_pos[t]) for t in active)
            d = tuple(np.ascontiguousarray(dst_pos[t]) for t in active)
            if all(np.array_equal(a, b) for a, b in zip(s, d)):
                continue
            key = (
                active,
                tuple(a.shape for a in s),
                tuple(a.tobytes() for a in s),
                tuple(a.tobytes() for a in d),
            )
            rec = dedup.get(key)
            if rec is None:
                rec = dedup[key] = MoveRecord(active, s, d)
                profile.records.append(rec)
            else:
                rec.count += 1
    profile.window = tuple(
        (0, 0) if l is None else (l, h) for l, h in zip(lo, hi)
    )
    return profile


def assert_same_profile(got: CommProfile, want: CommProfile) -> None:
    assert got.template_rank == want.template_rank
    assert got.window == want.window
    assert got.fixed == want.fixed
    assert got.broadcast == want.broadcast
    assert got.elements == want.elements
    assert got.general_moves == want.general_moves
    assert len(got.records) == len(want.records)
    for i, (g, w) in enumerate(zip(got.records, want.records)):
        assert g.axes == w.axes, i
        assert g.count == w.count, i
        for field in ("src", "dst"):
            ga, wa = getattr(g, field), getattr(w, field)
            assert len(ga) == len(wa), (i, field)
            for x, y in zip(ga, wa):
                assert x.dtype == y.dtype and x.shape == y.shape, (i, field)
                assert np.array_equal(x, y), (i, field)


# Every fragment maker lang/programs.py defines (the paper's six and the
# six extension fragments).
FRAGMENTS = {
    name: make
    for name, make in vars(programs).items()
    if inspect.isfunction(make) and make.__module__ == programs.__name__
}


class TestProfileEqualsPerPointWalk:
    """``build_profile`` walks a projection of each edge's space and
    builds arrays once per class of points; field by field, and record
    by record in order, it must equal the walk over every point."""

    @staticmethod
    def _check(program):
        plan, profile = _profile(program)
        assert_same_profile(
            profile, reference_profile(plan.adg, plan.alignments)
        )
        return plan

    @pytest.mark.parametrize("name", sorted(FRAGMENTS))
    def test_paper_fragments(self, name):
        self._check(FRAGMENTS[name]())

    @pytest.mark.parametrize("seed", [3, 41])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_families(self, family, seed):
        self._check(generate_scenario(seed, family=family).parse())

    def test_all_twelve_fragments_are_covered(self):
        assert len(FRAGMENTS) == 12

    def test_tail_shape_depending_on_a_liv(self):
        # Sizes differ per k, so nothing may be folded across k.
        plan = self._check(programs.triangular_sections(iters=6, m=4))
        assert any(
            ext.livs() for e in plan.adg.edges for ext in e.tail.shape
        )

    @pytest.mark.parametrize("which", ["inner", "outer"])
    def test_offset_depending_on_one_liv_of_a_nest(self, which):
        # The walk keeps one LIV of the 2-deep nest and multiplies by the
        # other's trip count; "inner" is the case a prefix-of-the-nest
        # shortcut would get wrong.
        plan = align_program(programs.doubly_nested(n=6))
        edge = next(
            e
            for e in plan.adg.edges
            if e.space.depth == 2
            and not any(
                ax.offset.livs()
                for p in (e.tail, e.head)
                for ax in plan.alignments[p.key].axes
            )
        )
        liv = edge.space.livs[1 if which == "inner" else 0]
        alignments = dict(plan.alignments)
        tail = alignments[edge.tail.key]
        axis = next(
            t for t, ax in enumerate(tail.axes) if not ax.is_replicated
        )
        alignments[edge.tail.key] = with_axis(
            tail, axis, offset=tail.axes[axis].offset + AffineForm.variable(liv, 2)
        )
        assert _walked_livs(
            edge.tail.shape,
            alignments[edge.tail.key],
            alignments[edge.head.key],
        ) == {liv}
        assert_same_profile(
            build_profile(plan.adg, alignments),
            reference_profile(plan.adg, alignments),
        )

    def test_unbound_liv_still_raises_keyerror(self):
        plan = align_program(programs.example1(n=8))
        edge = plan.adg.edges[0]
        alignments = dict(plan.alignments)
        tail = alignments[edge.tail.key]
        alignments[edge.tail.key] = with_axis(
            tail, 0, offset=AffineForm.variable(LIV("nowhere", 0))
        )
        with pytest.raises(KeyError, match="unbound LIV nowhere"):
            build_profile(plan.adg, alignments)


def one_edge(shape, src, dst, space=IterationSpace.scalar()):
    """A one-edge stand-in for an aligned ADG: what ``build_profile``,
    ``reference_profile`` and the simulator read of one, and no more."""
    edge = SimpleNamespace(
        tail=SimpleNamespace(key="tail", shape=tuple(map(AffineForm, shape))),
        head=SimpleNamespace(key="head"),
        space=space,
    )
    adg = SimpleNamespace(template_rank=src.template_rank, edges=[edge])
    return adg, {"tail": src, "head": dst}


def body(array_axis, stride, offset):
    return AxisAlignment(array_axis, AffineForm(stride), AffineForm(offset))


def space_axis(offset):
    return AxisAlignment(None, None, AffineForm(offset))


@st.composite
def constant_edges(draw):
    """``(shape, src, dst)``: every array axis on a body axis with stride
    in -3..3, one space axis, offsets in -20..20.  Extents run from 0,
    and a scalar object may still sit on a body axis."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    bodies = len(shape) or draw(st.integers(0, 1))
    offset = st.integers(-20, 20)

    def alignment():
        axes = [
            body(a, draw(st.integers(-3, 3)), draw(offset))
            for a in range(bodies)
        ]
        return Alignment((*axes, space_axis(draw(offset))))

    return shape, alignment(), alignment()


class TestNumbersDecideBeforeArrays:
    """The window, and whether a move is free or general, come from the
    evaluated stride/offset integers; coordinate arrays are built only
    for a non-empty class whose numbers differ on an active axis."""

    @given(constant_edges())
    def test_window_from_the_numbers_is_the_arrays_min_and_max(self, edge):
        shape, src, dst = edge
        adg, alignments = one_edge(shape, src, dst)
        got = _edge_contribution(
            adg.template_rank, src, dst, adg.edges[0].space, adg.edges[0].tail
        )
        for t, bounds in enumerate(got.window):
            arrays = [_axis_positions(a, shape, {})[t] for a in (src, dst)]
            if 0 in shape:
                assert bounds is None  # an empty object touches no cell
            else:
                assert bounds == (
                    min(int(a.min()) for a in arrays),
                    max(int(a.max()) for a in arrays),
                )
        assert_same_profile(
            build_profile(adg, alignments), reference_profile(adg, alignments)
        )

    @pytest.mark.parametrize(
        "shape, src, dst, general",
        [
            # extent 1: 0 + 2*1 == 1 + 1*1, yet the strides differ
            ((1,), body(0, 2, 0), body(0, 1, 1), 1),
            # nothing to move: the object is empty
            ((0,), body(0, 1, 0), body(0, 1, 3), 0),
            ((3, 0), body(1, 1, 5), body(1, 1, -5), 0),
        ],
    )
    def test_differing_numbers_with_equal_coordinates_leave_no_record(
        self, shape, src, dst, general
    ):
        adg, alignments = one_edge(
            shape, Alignment((src, space_axis(0))), Alignment((dst, space_axis(0)))
        )
        before = cachestats.snapshot()
        profile = build_profile(adg, alignments)
        assert "distrib.move_records" not in cachestats.delta(before)  # no arrays
        assert profile.records == [] and profile.general_moves == general
        assert_same_profile(profile, reference_profile(adg, alignments))

    def test_arrays_are_built_only_for_classes_whose_numbers_differ(self):
        plan = align_program(programs.doubly_nested())

        def numbers(align, env):
            return tuple(
                None
                if ax.is_replicated
                else (ax.is_body and ax.stride.evaluate(env), ax.offset.evaluate(env))
                for ax in align.axes
            )

        # build_profile compiles each distinct edge once
        edges = {
            (plan.alignments[e.tail.key], plan.alignments[e.head.key],
             e.space, e.tail.shape): e
            for e in plan.adg.edges
        }
        moving = 0
        for (src, dst, space, _), e in edges.items():
            if src.axis_signature() != dst.axis_signature():
                continue
            classes = {
                (_shape_at(e.tail, env), numbers(src, env), numbers(dst, env))
                for env in space.points()
            }
            for shape, s, d in classes:
                active = [(a, b) for a, b in zip(s, d) if a and b]
                if all(a[0] == b[0] for a, b in active) and 0 not in shape:
                    moving += any(a != b for a, b in active)
        assert moving
        cachestats.clear_caches()
        before = cachestats.snapshot()
        build_profile(plan.adg, plan.alignments)
        counts = cachestats.delta(before)
        assert sum(counts["distrib.move_records"]) == 2 * moving

    def test_no_kernel_evaluates_an_affine_form(self, corpus_kernels, monkeypatch):
        """Comm-profile reads every window and coordinate from the class
        numbers: on none of the 16 kernels does it evaluate an
        ``AffineForm``, with its caches cold."""
        assert len(corpus_kernels) == 16
        calls = []
        evaluate = AffineForm.evaluate

        def counted(form, env):
            calls.append(form)
            return evaluate(form, env)

        for kernel, source in corpus_kernels.items():
            plan = align_program(parse(source, name=kernel))
            cachestats.clear_caches()
            with monkeypatch.context() as m:
                m.setattr(AffineForm, "evaluate", counted)
                build_profile(plan.adg, plan.alignments)
            assert calls == [], kernel


def _comparable(c):
    """An :class:`EdgeContribution` as plain values: each move's key,
    axes and multiplicity, and each of its arrays' bytes, shape, dtype,
    C-contiguity and read-only flag."""
    return (
        c.elements,
        c.window,
        c.general_moved,
        c.general_moves,
        c.broadcast,
        [
            (
                key,
                axes,
                count,
                [
                    (a.tobytes(), a.shape, a.dtype.str,
                     a.flags.c_contiguous, a.flags.writeable)
                    for a in s + d
                ],
            )
            for key, axes, s, d, count in c.moves
        ],
    )  # fmt: skip


def compiled(compile_edge, *edge):
    """What ``compile_edge`` makes of ``edge``: its contribution, or
    the type and text of the error it raises."""
    try:
        return _comparable(compile_edge(*edge))
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_edge_matches_reference(*edge):
    got = compiled(_edge_contribution, *edge)
    assert got == compiled(reference_edge_contribution, *edge)
    return got


K, J = LIV("k", 0), LIV("j", 1)


def liv(v, coeff=1, const=0):
    return AffineForm.variable(v, coeff) + AffineForm(const)


def edge_of(shape, src, dst, space=IterationSpace.scalar()):
    """``(rank, src, dst, space, tail)``: the arguments of one edge."""
    shape = tuple(e if isinstance(e, AffineForm) else AffineForm(e) for e in shape)
    return src.template_rank, src, dst, space, SimpleNamespace(shape=shape)


@st.composite
def liv_edges(draw):
    """One edge in a loop nest of depth 0..2 (a triplet may be empty or
    run backwards) whose extents, strides and offsets are drawn from
    small pools of forms in its LIVs (strides from a pool of one or
    two), so the two ends share some forms and not others.  A template
    axis off the body is a space axis or a replicated one, on either
    end; extents run from 0 (and may go negative at some point, an
    error both walks must name alike); an offset may be ``k/2 + h/2``,
    integral at every point or not."""
    livs = (K, J)[: draw(st.integers(0, 2))]
    triplets = []
    for _ in livs:
        lo = draw(st.integers(-2, 3))
        step = draw(st.sampled_from([1, 2, -1]))
        triplets.append(Triplet(lo, lo + step * (draw(st.integers(0, 3)) - 1), step))
    space = IterationSpace(livs, tuple(triplets))

    def form(lo, hi):
        f = AffineForm(draw(st.integers(lo, hi)))
        for v in livs:
            if draw(st.booleans()):
                f = f + liv(v, draw(st.sampled_from([1, -1, 2])))
        return f

    forms = [form(-4, 4) for _ in range(draw(st.integers(1, 3)))]
    strides = [form(-2, 2) for _ in range(draw(st.integers(1, 2)))]
    if livs and draw(st.booleans()):
        forms.append(liv(livs[0], Fraction(1, 2), Fraction(draw(st.integers(0, 1)), 2)))
    extents = [AffineForm(draw(st.integers(0, 3)))]
    if livs:
        extents.append(liv(livs[-1], 1, draw(st.integers(1, 4))))
    ndim = draw(st.integers(0, 2))
    shape = tuple(draw(st.sampled_from(extents)) for _ in range(ndim))
    rank = draw(st.integers(max(ndim, 1), 3))
    bodies = ndim or draw(st.integers(0, 1))

    def alignment(placement):
        axes = [None] * rank
        for a, t in enumerate(placement):
            axes[t] = AxisAlignment(
                a, draw(st.sampled_from(strides)), draw(st.sampled_from(forms))
            )
        for t in range(rank):
            if axes[t] is None:
                replicated = draw(st.integers(0, 3)) == 0
                axes[t] = AxisAlignment(
                    None, None, draw(st.sampled_from(forms)),
                    ReplicatedExtent() if replicated else None,
                )
        return Alignment(tuple(axes))

    placement = draw(st.permutations(range(rank)))[:bodies]
    src = alignment(placement)
    if draw(st.booleans()):
        placement = draw(st.permutations(range(rank)))[:bodies]
    dst = alignment(placement)
    return rank, src, dst, space, SimpleNamespace(shape=shape)


class TestEdgeContributionEqualsTheReference:
    """The class tests compiled once per edge, with coordinates built
    from the class numbers, must compile every edge as the class walk
    that built its keys per class and evaluated its arrays through
    ``AffineForm.evaluate`` (``tests/costmodel_reference.py``): field by
    field, moves in order, every array equal in bytes, shape, dtype,
    C-contiguity and read-only flag, and the same error where it
    raises."""

    @pytest.mark.parametrize("name, source", reference_programs())
    def test_every_distinct_edge_of_the_corpus(self, name, source):
        plan = align_program(parse(source, name=name.split("@")[0]))
        rank = plan.adg.template_rank
        edges = {}
        for e in plan.adg.edges:
            src, dst = plan.alignments[e.tail.key], plan.alignments[e.head.key]
            edges.setdefault(
                (src, dst, e.space, e.tail.shape), (rank, src, dst, e.space, e.tail)
            )
        assert edges
        for edge in edges.values():
            assert isinstance(assert_edge_matches_reference(*edge)[0], int)

    def test_the_corpus_is_the_pinned_one(self):
        assert len(reference_programs()) == 16 + 48 + 14 + 40

    @settings(max_examples=300, deadline=None)
    @given(liv_edges())
    def test_edges_in_a_loop_nest(self, edge):
        assert_edge_matches_reference(*edge)

    def test_ends_sharing_their_forms_move_nothing(self):
        k = liv(K)
        a = Alignment((AxisAlignment(0, k, k), AxisAlignment(None, None, -k)))
        got = assert_edge_matches_reference(
            *edge_of((3,), a, a, IterationSpace.single(K, 1, 4))
        )
        assert got == (12, ((2, 16), (-4, -1)), 0, 0, 0, [])

    def test_ends_sharing_a_stride_but_not_an_offset_move(self):
        k = liv(K)
        src = Alignment((AxisAlignment(0, k, k),))
        dst = Alignment((AxisAlignment(0, k, AffineForm(1)),))
        got = assert_edge_matches_reference(
            *edge_of((3,), src, dst, IterationSpace.single(K, 1, 4))
        )
        # k = 1 is free (offsets 1 and 1); k = 2, 3, 4 each move
        assert [count for _, _, count, _ in got[5]] == [1, 1, 1]

    def test_ends_sharing_no_form_are_general_where_strides_differ(self):
        src = Alignment((body(0, 1, 0),))
        dst = Alignment((AxisAlignment(0, liv(K), AffineForm(0)),))
        got = assert_edge_matches_reference(
            *edge_of((2,), src, dst, IterationSpace.single(K, 1, 3))
        )
        assert got[2:4] == (4, 2)  # k = 2 and k = 3: two elements each

    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_a_replicated_axis_on_either_end(self, end):
        replicated = AxisAlignment(None, None, AffineForm(0), ReplicatedExtent())
        plain = Alignment((AxisAlignment(0, AffineForm(1), liv(K)), space_axis(2)))
        other = Alignment((body(0, 1, 0), replicated))
        src, dst = (other, plain) if end == "src" else (plain, other)
        got = assert_edge_matches_reference(
            *edge_of((4,), src, dst, IterationSpace.single(K, 0, 2))
        )
        assert got[4] == (12 if end == "dst" else 0)  # a broadcast per move
        assert [axes for _, axes, *_ in got[5]] == [(0,), (0,)]

    def test_a_zero_extent(self):
        src = Alignment((AxisAlignment(0, AffineForm(1), liv(K)),))
        got = assert_edge_matches_reference(
            *edge_of(
                (liv(K, 1, -1),), src, Alignment((body(0, 1, 0),)),
                IterationSpace.single(K, 1, 3),
            )
        )  # fmt: skip
        # k = 1: nothing moves and no cell is touched
        assert got[0] == 0 + 1 + 2 and len(got[5]) == 2

    def test_an_extent_1_axis_whose_strides_differ(self):
        # 0 + 2*1 == 1 + 1*1: equal coordinates, yet general
        got = assert_edge_matches_reference(
            *edge_of((1,), Alignment((body(0, 2, 0),)), Alignment((body(0, 1, 1),)))
        )
        assert got == (1, ((2, 2),), 1, 1, 0, [])

    def test_a_fraction_offset_integral_at_every_point(self):
        half = liv(K, Fraction(1, 2))
        src = Alignment((AxisAlignment(0, AffineForm(1), half),))
        got = assert_edge_matches_reference(
            *edge_of(
                (2,), src, Alignment((body(0, 1, 0),)),
                IterationSpace.single(K, 2, 8, 2),
            )
        )  # fmt: skip
        assert [count for _, _, count, _ in got[5]] == [1, 1, 1, 1]

    def test_a_fraction_offset_not_integral_names_the_first_failing_point(self):
        half = liv(K, Fraction(1, 2), Fraction(1, 2))  # integral at odd k
        src = Alignment((AxisAlignment(0, AffineForm(1), half),))
        got = assert_edge_matches_reference(
            *edge_of(
                (2,), src, Alignment((body(0, 1, 0),)),
                IterationSpace.single(K, 1, 4),
            )
        )  # fmt: skip
        assert got == (
            "ValueError",
            f"offset {half} evaluates to 3/2 at {({K: 2})}",
        )


class TestFractionalCoordinateIsAnError:
    """A stride or offset that is not an integer at some point used to
    be truncated, alike in the model and in the simulator."""

    def test_model_and_simulator_both_refuse(self):
        k = LIV("k", 0)
        half = AffineForm.variable(k, Fraction(1, 2))
        adg, alignments = one_edge(
            (4,),
            Alignment((AxisAlignment(0, AffineForm(1), half),)),
            Alignment((body(0, 1, 0),)),
            IterationSpace.single(k, 1, 4),
        )
        with pytest.raises(ValueError, match=r"offset 1/2\*k evaluates to 1/2 at"):
            build_profile(adg, alignments)
        with pytest.raises(ValueError, match=r"offset 1/2\*k evaluates to 1/2 at"):
            measure_traffic(adg, alignments, Distribution.identity(1))


class TestEdgesAreCompiledOnce:
    """``build_profile`` keeps each distinct edge's contribution in a
    memo; whoever filled the memo — this program, the program it is an
    edit of — the profile must equal the walk over every point."""

    @staticmethod
    def _aligned(source, name):
        from repro.lang import parse

        plan = align_program(parse(source, name=name))
        return plan.adg, plan.alignments

    def test_corpus_kernels_and_their_edits(self, corpus_kernels, corpus_edits):
        assert (len(corpus_kernels), len(corpus_edits)) == (16, 48)
        seeded = {}
        for name, source in corpus_kernels.items():
            adg, alignments = self._aligned(source, name)
            memo = seeded[name] = {}
            assert_same_profile(
                build_profile(adg, alignments, memo),
                reference_profile(adg, alignments),
            )
            # duplicate edges inside one program share an entry
            assert 0 < len(memo) <= len(adg.edges)
        for kernel, edit_class, source in corpus_edits:
            adg, alignments = self._aligned(source, kernel)
            memo = dict(seeded[kernel])
            assert_same_profile(
                build_profile(adg, alignments, memo),
                reference_profile(adg, alignments),
            )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_families_share_one_memo(self, family):
        # Seed 6 is compiled through what seed 5 left behind.
        memo = {}
        for seed in (5, 6):
            plan = align_program(generate_scenario(seed, family=family).parse())
            assert_same_profile(
                build_profile(plan.adg, plan.alignments, memo),
                reference_profile(plan.adg, plan.alignments),
            )

    def test_a_hit_adds_nothing_and_a_second_profile_is_equal(self):
        plan = align_program(programs.stencil_sweep(n=32, iters=8))
        memo = {}
        first = build_profile(plan.adg, plan.alignments, memo)
        entries = dict(memo)
        second = build_profile(plan.adg, plan.alignments, memo)
        assert memo == entries
        assert all(memo[k] is entries[k] for k in memo)
        assert_same_profile(second, first)
        # Profiles count into their own records, never into the memo's.
        assert all(a is not b for a, b in zip(first.records, second.records))

    def test_every_array_reachable_from_the_memo_is_read_only(self):
        memo = {}
        for make in FRAGMENTS.values():
            plan = align_program(make())
            profile = build_profile(plan.adg, plan.alignments, memo)
            for rec in profile.records:
                for arr in rec.src + rec.dst:
                    assert not arr.flags.writeable
        arrays = [
            arr
            for c in memo.values()
            for _, _, s, d, _ in c.moves
            for arr in s + d
        ]
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = -1


class TestEvaluateExactness:
    """The model must agree with the executor for ANY distribution."""

    CASES = [
        (lambda: programs.stencil_sweep(n=48, iters=3), dict(replication=False)),
        (lambda: programs.figure1(n=12), dict(replication=False)),
        (lambda: programs.skewed_wavefront(n=10), dict(replication=False)),
        (lambda: programs.figure4(nt=8, nk=6), {}),
    ]

    @pytest.mark.parametrize("make,kw", CASES)
    def test_identity_equals_executor_and_equation1(self, make, kw):
        plan, profile = _profile(make(), **kw)
        ident = Distribution.identity(profile.template_rank)
        modeled = evaluate(profile, ident)
        measured = measure_traffic(plan.adg, plan.alignments, ident)
        assert modeled.hops == measured.hop_cost
        assert modeled.moved == measured.elements_moved
        assert modeled.broadcast == measured.broadcast_elements
        # equation-1: identity hops plus the once-charged broadcasts
        # equal the analytic alignment cost
        assert modeled.hops + modeled.broadcast == plan.total_cost

    @pytest.mark.parametrize("make,kw", CASES)
    def test_block_and_cyclic_equal_executor(self, make, kw):
        plan, profile = _profile(make(), **kw)
        for scheme in ("block", "cyclic"):
            axes = []
            for lo, hi in profile.window:
                ext = hi - lo + 1
                if scheme == "block":
                    axes.append(Block(4, max(1, -(-ext // 4)), lo))
                else:
                    axes.append(Cyclic(4, lo))
            dist = Distribution(tuple(axes))
            modeled = evaluate(profile, dist)
            measured = measure_traffic(plan.adg, plan.alignments, dist)
            assert modeled.hops == measured.hop_cost, scheme
            assert modeled.moved == measured.elements_moved, scheme

    def test_rank_mismatch_rejected(self):
        _, profile = _profile(programs.example1(n=8))
        with pytest.raises(ValueError, match="rank"):
            evaluate(profile, Distribution.identity(profile.template_rank + 1))


class TestCachedPositionAliasing:
    """Shared cache entries must never hand out writable aliases.

    The move-record compiler memoizes per-axis coordinate arrays in a
    :class:`BoundedCache`; every consumer receives the same objects, so
    one stray in-place write would corrupt every later profile built
    from the same geometry.  The store path freezes each array, and the
    container is a tuple — immutability by construction, including for
    entries re-stored after an eviction.
    """

    def _fill_cache(self):
        from repro.distrib import costmodel

        costmodel._POSITIONS.clear()
        _profile(programs.figure1(n=10), replication=False)
        entries = list(costmodel._POSITIONS._data.values())
        assert entries, "profile build should populate the position cache"
        return entries

    def test_cached_entries_are_frozen_tuples_of_readonly_arrays(self):
        for entry in self._fill_cache():
            assert isinstance(entry, tuple)
            for arr in entry:
                assert isinstance(arr, np.ndarray)
                assert not arr.flags.writeable

    def test_writes_through_cached_arrays_are_refused(self):
        for entry in self._fill_cache():
            for arr in entry:
                if not arr.size:
                    continue
                with pytest.raises(ValueError, match="read-only"):
                    arr[..., 0] = -1

    def test_restored_entries_after_eviction_are_also_frozen(self):
        from repro.distrib import costmodel

        cache = costmodel._POSITIONS
        self._fill_cache()
        # Force the eviction path: shrink the bound so the next build
        # evicts and re-stores, then confirm the re-stored entries are
        # frozen exactly like first-time stores.
        old = cache.maxsize
        try:
            cache.maxsize = 1
            _profile(programs.figure1(n=10), replication=False)
            for entry in cache._data.values():
                for arr in entry:
                    assert not arr.flags.writeable
        finally:
            cache.maxsize = old

    def test_profiles_share_cached_arrays_not_copies(self):
        # The point of the cache: identical geometry across profile
        # builds yields the *same* array objects, which is exactly why
        # they must be read-only.
        from repro.distrib import costmodel

        costmodel._POSITIONS.clear()
        _profile(programs.figure1(n=10), replication=False)
        first = {
            k: tuple(id(a) for a in v)
            for k, v in costmodel._POSITIONS._data.items()
        }
        _profile(programs.figure1(n=10), replication=False)
        second = {
            k: tuple(id(a) for a in v)
            for k, v in costmodel._POSITIONS._data.items()
        }
        shared = set(first) & set(second)
        assert shared
        assert all(first[k] == second[k] for k in shared)


class TestAxisHops:
    def test_axis_hops_sum_to_total(self):
        # The L1 metric decomposes over axes: per-axis hop sums plus the
        # distribution-independent fixed part equal the full evaluation.
        _, profile = _profile(programs.figure1(n=10), replication=False)
        axes = []
        for lo, hi in profile.window:
            ext = hi - lo + 1
            axes.append(Block(2, max(1, -(-ext // 2)), lo))
        dist = Distribution(tuple(axes))
        per_axis = sum(
            axis_hops(profile, t, ax) for t, ax in enumerate(dist.axes)
        )
        assert per_axis + profile.fixed.hops == evaluate(profile, dist).hops
