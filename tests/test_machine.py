"""Unit tests for the machine simulator."""

import numpy as np
import pytest

from conftest import with_axis
from repro.align import align_program
from repro.align.position import Alignment, AxisAlignment, ReplicatedExtent
from repro.ir import LIV, AffineForm
from repro.lang import programs
from repro.machine import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    Identity,
    MoveCount,
    count_move,
    format_table,
    measure_plan,
    uniform,
)

k = LIV("k", 0)


class TestDistributions:
    def test_block_mapping(self):
        b = Block(nprocs=4, block=8)
        cells = np.array([0, 7, 8, 31])
        assert list(b.map(cells)) == [0, 0, 1, 3]

    def test_cyclic_mapping(self):
        c = Cyclic(nprocs=4)
        assert list(c.map(np.array([0, 1, 4, 5]))) == [0, 1, 0, 1]

    def test_block_cyclic(self):
        bc = BlockCyclic(nprocs=2, block=3)
        assert list(bc.map(np.arange(12))) == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]

    def test_identity(self):
        i = Identity()
        assert list(i.map(np.array([3, 9]))) == [3, 9]

    def test_uniform_block(self):
        d = uniform("block", [(0, 99)], (4,))
        assert d.axes == (Block(4, 25, 0),)

    def test_uniform_schemes_are_based_at_the_window(self):
        window, grid = [(-3, 12), (0, 9)], (4, 2)
        assert uniform("block", window, grid).axes == (Block(4, 4, -3), Block(2, 5, 0))
        assert uniform("cyclic", window, grid).axes == (Cyclic(4, -3), Cyclic(2, 0))
        assert uniform("block-cyclic", window, grid).axes == (
            BlockCyclic(4, 4, -3),
            BlockCyclic(2, 4, 0),
        )

    def test_uniform_rejects_bad_grids_and_names(self):
        with pytest.raises(ValueError, match="rank-1 processor grid for a rank-2"):
            uniform("block", [(0, 9), (0, 9)], (4,))
        with pytest.raises(ValueError, match="nprocs >= 1"):
            uniform("cyclic", [(0, 9)], (0,))
        with pytest.raises(ValueError, match="unknown distribution scheme 'blocky'"):
            uniform("blocky", [(0, 9)], (4,))

    def test_moved_mask_and_hops(self):
        d = Distribution((Cyclic(4),))
        src = [np.array([0, 1, 2, 3])]
        dst = [np.array([1, 2, 3, 4])]
        assert d.moved_mask(src, dst).all()
        assert d.hop_distance(src, dst).sum() == 1 + 1 + 1 + 3

    def test_block_rejects_out_of_coverage(self):
        b = Block(nprocs=4, block=8)  # covers [0, 32)
        with pytest.raises(ValueError, match="outside covered range"):
            b.map(np.array([0, 32]))
        with pytest.raises(ValueError, match="below distribution base"):
            b.map(np.array([-1, 3]))

    def test_cyclic_rejects_below_base(self):
        with pytest.raises(ValueError, match="below distribution base"):
            Cyclic(nprocs=4).map(np.array([-1]))
        with pytest.raises(ValueError, match="below distribution base"):
            Cyclic(nprocs=4, base=10).map(np.array([9]))

    def test_block_cyclic_rejects_below_base(self):
        with pytest.raises(ValueError, match="below distribution base"):
            BlockCyclic(nprocs=2, block=3).map(np.array([-5]))
        # but any cell at/above base is in contract (cyclic wraps forever)
        assert list(BlockCyclic(nprocs=2, block=3).map(np.array([10**6]))) == [1]

    def test_base_shifts_coverage(self):
        b = Block(nprocs=2, block=4, base=-8)  # covers [-8, 0)
        assert list(b.map(np.array([-8, -5, -4, -1]))) == [0, 0, 1, 1]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            Block(nprocs=0, block=4)
        with pytest.raises(ValueError):
            Block(nprocs=4, block=0)
        with pytest.raises(ValueError):
            Cyclic(nprocs=0)
        with pytest.raises(ValueError):
            BlockCyclic(nprocs=2, block=-1)

    def test_identity_allows_any_cell(self):
        assert list(Identity().map(np.array([-7, 0, 7]))) == [-7, 0, 7]


class TestCountMove:
    def test_pure_shift(self):
        a = Alignment.canonical(1, 1)
        b = with_axis(a, 0, offset=AffineForm(3))
        mc = count_move(a, b, (10,), {}, Distribution.identity(1))
        assert mc.elements_moved == 10
        assert mc.hop_cost == 30
        assert not mc.general

    def test_no_move(self):
        a = Alignment.canonical(1, 1)
        mc = count_move(a, a, (10,), {}, Distribution.identity(1))
        assert mc.elements_moved == 0

    def test_stride_mismatch_general(self):
        a = Alignment.canonical(1, 1)
        b = Alignment((AxisAlignment(0, AffineForm(2), AffineForm(0)),))
        mc = count_move(a, b, (10,), {}, Distribution.identity(1))
        assert mc.general
        assert mc.elements_moved == 10

    def test_broadcast(self):
        a = Alignment.canonical(1, 2)
        b = with_axis(a, 1, replication=ReplicatedExtent())
        mc = count_move(a, b, (10,), {}, Distribution.identity(2))
        assert mc.broadcast_elements == 10

    def test_from_replicated_is_free(self):
        a = with_axis(Alignment.canonical(1, 2), 1, replication=ReplicatedExtent())
        b = with_axis(Alignment.canonical(1, 2), 1, offset=AffineForm(5))
        mc = count_move(a, b, (10,), {}, Distribution.identity(2))
        assert mc.elements_moved == 0
        assert mc.broadcast_elements == 0

    def test_block_absorbs_small_shift(self):
        a = Alignment.canonical(1, 1)
        b = with_axis(a, 0, offset=AffineForm(1))
        # cells span [1, 17]; blocks of 9 from base 1 cover [1, 19)
        d = Distribution((Block(nprocs=2, block=9, base=1),))
        mc = count_move(a, b, (16,), {}, d)
        # only the elements at each block boundary cross processors
        assert mc.elements_moved == 1
        assert mc.hop_cost == 1

    def test_mobile_alignment_env(self):
        ax0 = AxisAlignment(None, None, AffineForm(0, {k: 1}))
        ax1 = AxisAlignment(0, AffineForm(1), AffineForm(0))
        a = Alignment((ax0, ax1))
        b = Alignment((AxisAlignment(None, None, AffineForm(1, {k: 1})), ax1))
        mc = count_move(a, b, (10,), {k: 5}, Distribution.identity(2))
        assert mc.hop_cost == 10  # one row apart regardless of k


class TestMeasurePlan:
    def test_identity_matches_analytic(self):
        for prog, kwargs in [
            (programs.figure1(n=16), dict(replication=False)),
            (programs.example1(n=32), {}),
            (programs.stencil_sweep(n=24, iters=2), dict(replication=False)),
            (programs.skewed_wavefront(n=12), dict(replication=False)),
        ]:
            plan = align_program(prog, **kwargs)
            rep = measure_plan(plan, scheme="identity")
            assert rep.hop_cost == plan.total_cost, prog.name
            # a coarser distribution can only keep more moves on-processor
            block = measure_plan(
                plan, scheme="block", processors=(4,) * plan.adg.template_rank
            )
            assert block.elements_moved <= rep.elements_moved, prog.name

    def test_broadcast_counted(self):
        plan = align_program(programs.figure4(nt=8, nk=6))
        rep = measure_plan(plan, scheme="identity")
        assert rep.broadcast_elements == 8  # one entry broadcast of t

    def test_block_distribution_reduces_moves(self):
        plan = align_program(programs.stencil_sweep(n=64, iters=2), replication=False)
        ident = measure_plan(plan, scheme="identity")
        block = measure_plan(plan, scheme="block", processors=(4,))
        assert block.elements_moved < ident.elements_moved

    def test_requires_processors(self):
        plan = align_program(programs.example1(n=8))
        with pytest.raises(ValueError):
            measure_plan(plan, scheme="block")

    def test_summary_string(self):
        plan = align_program(programs.example1(n=8))
        rep = measure_plan(plan)
        assert "moved=" in rep.summary()


class TestFormatTable:
    def test_renders(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "333" in out
