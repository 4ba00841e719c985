"""Unit tests for alignments, metrics, spans."""

from fractions import Fraction

import pytest

from conftest import with_axis
from repro.align import (
    Alignment,
    alignment_distance,
    discrete,
    grid,
    has_sign_change,
    refine_space_at_crossings,
)
from repro.align.position import AxisAlignment, ReplicatedExtent
from repro.ir import LIV, AffineForm, IterationSpace, Triplet

k = LIV("k", 0)


class TestAlignment:
    def test_canonical(self):
        a = Alignment.canonical(1, 2)
        assert a.rank == 1
        assert a.template_rank == 2
        assert a.axes[0].is_body and not a.axes[1].is_body

    def test_position_body_and_space(self):
        a = with_axis(Alignment.canonical(1, 2), 1, offset=AffineForm(0, {k: 1}))
        pos = a.position({0: 7}, {k: 3})
        assert pos == (7, 3)

    def test_mobile_stride_position(self):
        ax = AxisAlignment(0, AffineForm(0, {k: 1}), AffineForm(0))
        a = Alignment((ax,))
        assert a.position({0: 5}, {k: 2}) == (10,)

    def test_duplicate_body_axis_rejected(self):
        ax = AxisAlignment(0, AffineForm(1), AffineForm(0))
        with pytest.raises(ValueError):
            Alignment((ax, ax))

    def test_body_requires_stride(self):
        with pytest.raises(ValueError):
            AxisAlignment(0, None, AffineForm(0))

    def test_replicated_body_rejected(self):
        with pytest.raises(ValueError):
            AxisAlignment(0, AffineForm(1), AffineForm(0), ReplicatedExtent())

    def test_replication_position_raises(self):
        ax = AxisAlignment(None, None, AffineForm(0), ReplicatedExtent())
        with pytest.raises(ValueError):
            ax.position({}, {})

    def test_with_replication(self):
        a = with_axis(Alignment.canonical(1, 2), 1, replication=ReplicatedExtent())
        assert a.axes[1].is_replicated
        with pytest.raises(ValueError, match="space axes"):
            with_axis(a, 0, replication=ReplicatedExtent())

    def test_template_axis_of(self):
        a = Alignment.canonical(2, 3)
        assert a.template_axis_of(1) == 1
        with pytest.raises(KeyError):
            a.template_axis_of(2)

    def test_repr_mobile(self):
        a = with_axis(Alignment.canonical(1, 2), 0, offset=AffineForm(1, {k: -1}))
        assert "i0" in repr(a)


class TestMetrics:
    def test_discrete(self):
        assert discrete(1, 1) == 0
        assert discrete(1, 2) == 1

    def test_grid(self):
        assert grid((Fraction(1), Fraction(2)), (Fraction(4), Fraction(0))) == 5

    def test_grid_rank_mismatch(self):
        with pytest.raises(ValueError):
            grid((Fraction(1),), (Fraction(1), Fraction(2)))

    def test_alignment_distance_offset(self):
        a = Alignment.canonical(1, 1)
        b = with_axis(a, 0, offset=AffineForm(3))
        assert alignment_distance(a, b, {}, elements=10) == 30

    def test_alignment_distance_stride_mismatch(self):
        a = Alignment.canonical(1, 1)
        ax = AxisAlignment(0, AffineForm(2), AffineForm(0))
        b = Alignment((ax,))
        assert alignment_distance(a, b, {}, elements=10) == 10  # general comm

    def test_alignment_distance_broadcast(self):
        a = Alignment.canonical(1, 2)
        b = with_axis(a, 1, replication=ReplicatedExtent())
        assert alignment_distance(a, b, {}, elements=7) == 7

    def test_alignment_distance_from_replicated_free(self):
        a = with_axis(Alignment.canonical(1, 2), 1, replication=ReplicatedExtent())
        b = with_axis(Alignment.canonical(1, 2), 1, offset=AffineForm(9))
        assert alignment_distance(a, b, {}, elements=7) == 0

    def test_mobile_strides_compare_pointwise(self):
        ax1 = AxisAlignment(0, AffineForm(0, {k: 1}), AffineForm(0))
        ax2 = AxisAlignment(0, AffineForm(1), AffineForm(0))
        a, b = Alignment((ax1,)), Alignment((ax2,))
        # at k=1 strides agree -> offset metric; at k=2 they differ
        assert alignment_distance(a, b, {k: 1}, 5) == 0
        assert alignment_distance(a, b, {k: 2}, 5) == 5


class TestSpan:
    def test_no_sign_change(self):
        span = AffineForm(1, {k: 1})  # positive on 1..10
        assert not has_sign_change(span, IterationSpace.single(k, 1, 10))

    def test_sign_change(self):
        span = AffineForm(-5, {k: 1})  # crosses at k=5
        assert has_sign_change(span, IterationSpace.single(k, 1, 10))

    def test_boundary_zero_not_change(self):
        span = AffineForm(-1, {k: 1})  # zero at k=1, positive after
        assert not has_sign_change(span, IterationSpace.single(k, 1, 10))

    def test_refine_splits_sign_pure(self):
        span = AffineForm(Fraction(-11, 2), {k: 1})
        space = IterationSpace.single(k, 1, 10)
        parts = refine_space_at_crossings(span, space)
        assert len(parts) == 2
        assert sum(p.count for p in parts) == 10
        for p in parts:
            assert not has_sign_change(span, p)

    def test_refine_no_change_identity(self):
        span = AffineForm(100, {k: 1})
        space = IterationSpace.single(k, 1, 10)
        assert refine_space_at_crossings(span, space) == [space]

    def test_refine_depth2(self):
        j = LIV("j", 0)
        span = AffineForm(-6, {k: 1, j: 1})
        space = IterationSpace.single(k, 1, 5).extended(j, Triplet(1, 5))
        parts = refine_space_at_crossings(span, space)
        assert sum(p.count for p in parts) == 25
