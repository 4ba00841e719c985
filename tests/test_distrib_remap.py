"""Unit tests for phase splitting and redistribution planning."""

import pytest

from repro.align import align_program
from repro.distrib import (
    build_profile,
    plan_distribution,
    plan_phase_sequence,
    plan_program_phases,
    rank_plans,
    remap_cost,
    split_phases,
    union_window,
)
from repro.distrib.remap import PHASE_CANDIDATES
from repro.lang import programs
from repro.lang.parser import parse
from repro.machine import Block, Cyclic, Distribution

TWO_PHASE = """
real U(32), W(32)
W(2:31) = U(1:30) + U(3:32)
U(2:31) = W(2:31)
"""


def _phase_profiles(src, name="p", **kw):
    prog = parse(src, name=name)
    out = []
    for sub in split_phases(prog):
        plan = align_program(sub, **kw)
        out.append((sub.name, build_profile(plan.adg, plan.alignments)))
    return out


class TestSplitPhases:
    def test_one_phase_per_top_level_statement(self):
        prog = parse(TWO_PHASE, name="p")
        phases = split_phases(prog)
        assert len(phases) == 2
        assert [p.name for p in phases] == ["p[0]", "p[1]"]
        assert all(p.decls == prog.decls for p in phases)
        assert sum(len(p.body) for p in phases) == len(prog.body)

    def test_loop_is_single_phase(self):
        phases = split_phases(programs.stencil_sweep(n=16, iters=2))
        assert len(phases) == 1  # the whole do-loop is one statement


class TestUnionWindow:
    def test_union_covers_all(self):
        profiles = [p for _, p in _phase_profiles(TWO_PHASE)]
        win = union_window(profiles)
        for p in profiles:
            for (lo, hi), (ulo, uhi) in zip(p.window, win):
                assert ulo <= lo and hi <= uhi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            union_window([])


class TestRemapCost:
    WINDOW = ((0, 31),)

    def test_same_distribution_is_free(self):
        d = Distribution((Block(4, 8),))
        assert remap_cost(self.WINDOW, d, d).hops == 0
        assert remap_cost(self.WINDOW, d, d).moved == 0

    def test_block_to_cyclic_moves_most_cells(self):
        blk = Distribution((Block(4, 8),))
        cyc = Distribution((Cyclic(4),))
        rc = remap_cost(self.WINDOW, blk, cyc)
        assert rc.moved > 16  # most of the 32 cells change owner
        assert rc.hops >= rc.moved // 2

    def test_symmetric(self):
        blk = Distribution((Block(4, 8),))
        cyc = Distribution((Cyclic(4),))
        assert remap_cost(self.WINDOW, blk, cyc) == remap_cost(
            self.WINDOW, cyc, blk
        )

    def test_two_dimensional_window(self):
        a = Distribution((Block(2, 4), Cyclic(2)))
        b = Distribution((Block(2, 4), Cyclic(2, base=-1)))
        rc = remap_cost(((0, 7), (0, 3)), a, b)
        assert rc.moved == 8 * 4  # every cell flips parity on axis 1


class TestPhaseChainDP:
    def test_single_phase_matches_planner(self):
        profiles = _phase_profiles(TWO_PHASE)[:1]
        seq = plan_phase_sequence(profiles, 4)
        assert len(seq.phases) == 1
        assert seq.remap_cost == 0
        # Same hop cost as the standalone planner (the phase window is
        # its own union, so candidates coincide).
        standalone = plan_distribution(profiles[0][1], 4)
        assert seq.phases[0].plan.cost.hops == standalone.cost.hops

    def test_dp_no_worse_than_any_fixed_selection(self):
        profiles = _phase_profiles(TWO_PHASE)
        win = union_window([p for _, p in profiles])
        seq = plan_phase_sequence(profiles, 4)
        cands = [
            rank_plans(p, 4, k=PHASE_CANDIDATES, window=win) for _, p in profiles
        ]
        for pick in (0, -1):
            sel = [c[pick] if len(c) > abs(pick) else c[0] for c in cands]
            total = sum(p.cost.hops for p in sel)
            for a, b in zip(sel, sel[1:]):
                total += remap_cost(
                    win, a.to_distribution(), b.to_distribution()
                ).hops
            assert seq.total_hops <= total

    def test_totals_add_up(self):
        seq = plan_phase_sequence(_phase_profiles(TWO_PHASE), 4)
        assert seq.total_hops == seq.phase_cost + seq.remap_cost

    def test_render_mentions_phases_and_remaps(self):
        seq = plan_phase_sequence(_phase_profiles(TWO_PHASE), 4)
        text = seq.render()
        assert "phased distribution plan" in text
        assert "DISTRIBUTE" in text
        assert "remap" in text

    def test_program_driver(self):
        seq = plan_program_phases(
            parse(TWO_PHASE, name="p"), 4, align_kw=dict(replication=False)
        )
        assert len(seq.phases) == 2
        assert seq.phases[0].name == "p[0]"
