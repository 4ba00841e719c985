"""Unit tests for the distribution search (the exact per-axis argmin)."""

from itertools import product

import numpy as np
import pytest

from repro import cachestats, obs
from repro.align import align_program
from repro.distrib import (
    build_profile,
    naive_costs,
    plan_distribution,
    rank_plans,
)
from repro.distrib.costmodel import CommProfile, CostVector, MoveRecord
from repro.align.pipeline import planning_records, solve_prefix
from repro.lang import parse, programs
from repro.lang.generate import FAMILIES, generate_scenario, topology_corpus
from repro.machine import SCHEMES, Distribution
from repro.topology import parse_topology
from conftest import CORPUS_DIR, axis_candidates, candidate_spaces, evaluate, space_size
from test_distrib_vectorized import SWEEP_MACHINES


#: The 16 pinned kernels of ``benchmarks/perf/corpus``.
KERNELS = sorted(p.stem for p in CORPUS_DIR.glob("*.dp"))


def _profile(prog, **kw):
    plan = align_program(prog, **kw)
    return build_profile(plan.adg, plan.alignments)


def _brute_force_hops(profile, nprocs):
    """Minimum modeled hops over the full candidate cross-product."""
    best = None
    for _, cands in candidate_spaces(profile, nprocs):
        for combo in product(*cands):
            dist = Distribution(combo)
            hops = evaluate(profile, dist).hops
            if best is None or hops < best:
                best = hops
    return best


class TestExhaustive:
    @pytest.mark.parametrize(
        "make,kw,nprocs",
        [
            (lambda: programs.stencil_sweep(n=48, iters=2),
             dict(replication=False), 4),
            (lambda: programs.figure1(n=10), dict(replication=False), 4),
            (lambda: programs.skewed_wavefront(n=8),
             dict(replication=False), 6),
        ],
    )
    def test_matches_brute_force(self, make, kw, nprocs):
        profile = _profile(make(), **kw)
        plan = plan_distribution(profile, nprocs)
        assert plan.exact
        assert plan.cost.hops == _brute_force_hops(profile, nprocs)

    def test_plan_is_consistent(self):
        profile = _profile(programs.figure1(n=10), replication=False)
        plan = plan_distribution(profile, 8)
        assert plan.num_processors == 8
        assert plan.rank == profile.template_rank
        # the reported cost is the plan's own evaluation
        assert evaluate(profile, plan.to_distribution()) == plan.cost

    def test_beats_or_matches_naive(self):
        profile = _profile(programs.figure1(n=10), replication=False)
        plan = plan_distribution(profile, 4)
        assert plan.cost.hops <= min(
            c.hops for c in naive_costs(profile, 4).values()
        )


class TestRankPlans:
    def test_sorted_and_distinct_grids(self):
        profile = _profile(programs.figure1(n=10), replication=False)
        plans = rank_plans(profile, 8, k=3)
        assert len(plans) == 3
        hops = [p.cost.hops for p in plans]
        assert hops == sorted(hops)
        assert len({p.grid for p in plans}) == 3

    def test_best_agrees_with_planner(self):
        profile = _profile(programs.figure1(n=10), replication=False)
        assert (
            rank_plans(profile, 4, k=1)[0].cost.hops
            == plan_distribution(profile, 4).cost.hops
        )

    def test_every_grid_is_ranked(self, reference_planner):
        # 2**10 processors on a rank-3 template: C(12, 2) = 66 grids.
        profile = CommProfile(
            3,
            [
                _axis_record(0, [(0, 5)]),
                _axis_record(1, [(0, 1), (2, 4)]),
                _axis_record(2, [(1, 7), (3, 6), (0, 2)]),
            ],
            window=((0, 7), (0, 7), (0, 7)),
        )
        ranked = rank_plans(profile, 1024, k=66)
        assert len(ranked) == 66 and {pl.searched for pl in ranked} == {66}
        assert ranked == reference_planner.rank_plans(profile, 1024, 66)


# -- tied-grid pricing vs the per-grid scalar planner --------------------------


def _axis_record(axis, moves):
    """A move record on one template axis: ``moves`` are ``(src, dst)`` cells."""
    src, dst = (np.array(cells) for cells in zip(*moves))
    return MoveRecord((axis,), (src,), (dst,))


def _assert_same_plan(got, want):
    assert got.axes == want.axes
    assert got.cost == want.cost
    assert got.exact == want.exact
    assert got.searched == want.searched
    assert got.topology == want.topology


_FRAGMENTS = {
    "figure1": lambda: programs.figure1(n=12),
    "figure4": lambda: programs.figure4(nt=6, nk=8),
    "example1": lambda: programs.example1(n=12),
    "example2": lambda: programs.example2(n=12),
    "example3": lambda: programs.example3(n=8),
    "example5": lambda: programs.example5(iters=4, m=4),
    "lookup_table": lambda: programs.lookup_table(n=16, m=24),
    "stencil_sweep": lambda: programs.stencil_sweep(n=24, iters=2),
    "skewed_wavefront": lambda: programs.skewed_wavefront(n=8),
    "triangular_sections": lambda: programs.triangular_sections(iters=4, m=4),
    "doubly_nested": lambda: programs.doubly_nested(n=6),
    "conditional_update": lambda: programs.conditional_update(n=12),
}
_GENERATED = {
    f"{family}_{seed}": (family, seed)
    for family in sorted(FAMILIES)
    for seed in (5, 6)
}


@pytest.fixture(scope="module")
def profiles():
    out = {name: _profile(make()) for name, make in _FRAGMENTS.items()}
    for name, (family, seed) in _GENERATED.items():
        out[name] = _profile(generate_scenario(seed, family=family).parse())
    return out


class TestTiedGridPricing:
    @staticmethod
    def _machines(profile, nprocs):
        """``(topology, has a realizable grid)`` over five machines."""
        for spec in topology_corpus(5, seed=0, nprocs=nprocs):
            topology = parse_topology(spec)
            yield topology, any(candidate_spaces(profile, nprocs, topology=topology))

    @pytest.mark.parametrize("nprocs", [16, 64])
    @pytest.mark.parametrize("name", [*_FRAGMENTS, *_GENERATED])
    def test_plan_equals_per_grid_scalar_planner(
        self, profiles, name, nprocs, reference_planner
    ):
        profile = profiles[name]
        for topology, realizable in self._machines(profile, nprocs):
            if not realizable:
                with pytest.raises(ValueError, match="no realizable"):
                    plan_distribution(profile, nprocs, topology=topology)
                continue
            _assert_same_plan(
                plan_distribution(profile, nprocs, topology=topology),
                reference_planner.plan_distribution(profile, nprocs, topology),
            )

    @pytest.mark.parametrize("nprocs", [16, 64])
    @pytest.mark.parametrize("name", [*_FRAGMENTS, *_GENERATED])
    def test_ranking_equals_per_grid_scalar_planner(
        self, profiles, name, nprocs, reference_planner
    ):
        profile = profiles[name]
        for topology, realizable in self._machines(profile, nprocs):
            if not realizable:
                with pytest.raises(ValueError, match="no realizable"):
                    rank_plans(profile, nprocs, k=4, topology=topology)
                continue
            got = rank_plans(profile, nprocs, k=4, topology=topology)
            want = reference_planner.rank_plans(profile, nprocs, 4, topology)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _assert_same_plan(g, w)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_sweep_machines_equal_the_scalar_planner(self, corpus_kernels, kernel, reference_planner):
        """The 16 pinned kernels on the nine ``machine_sweep`` machines:
        the row front's winners are the scalar per-grid argmin's."""
        options, _ = planning_records()
        ctx = solve_prefix(parse(corpus_kernels[kernel], name=kernel), options)
        profile = ctx.get("profile")
        for spec in SWEEP_MACHINES:
            topology = parse_topology(spec)
            nprocs = topology.nprocs
            _assert_same_plan(
                plan_distribution(profile, nprocs, topology=topology),
                reference_planner.plan_distribution(profile, nprocs, topology),
            )
            got = rank_plans(profile, nprocs, k=4, topology=topology)
            want = reference_planner.rank_plans(profile, nprocs, 4, topology)
            assert len(got) == len(want), spec
            for g, w in zip(got, want):
                _assert_same_plan(g, w)

    @pytest.mark.parametrize("nprocs", [4, 16, 64])
    @pytest.mark.parametrize("name", list(_FRAGMENTS))
    def test_searched_is_the_space_size(self, profiles, name, nprocs):
        # The planner counts the covered cross-product from the spaces it
        # already enumerated; the public counter must agree.
        profile = profiles[name]
        assert plan_distribution(profile, nprocs).searched == space_size(
            profile, nprocs
        )

    @staticmethod
    def _two_axis_profile(axis1_moves):
        """Rank 2 on a 3x3 window, 3 processors: the grids are (1, 3) and
        (3, 1), and a 3-processor axis owns one cell per processor under
        every scheme, so hops are plain cell distances."""
        return CommProfile(
            2,
            [_axis_record(0, [(0, 2)]), _axis_record(1, axis1_moves)],
            window=((0, 2), (0, 2)),
        )

    def test_hop_tie_is_broken_by_moved(self, reference_planner):
        # Axis 0 moves one element two cells, axis 1 two elements one
        # cell each: both grids cost 2 hops, (3, 1) moves fewer elements.
        profile = self._two_axis_profile([(0, 1), (1, 2)])
        with obs.recording() as rec:
            plan = plan_distribution(profile, 3)
        assert plan.grid == (3, 1)
        assert plan.cost == CostVector(hops=2, moved=1)
        _assert_same_plan(plan, reference_planner.plan_distribution(profile, 3))
        tags = rec.find("distrib.plan")[0].tags
        assert (tags["grids"], tags["grids_tied"]) == (2, 2)
        assert "grids_priced" not in tags  # no grid is priced a second time

    def test_full_cost_tie_goes_to_the_smaller_grid(self, reference_planner):
        profile = self._two_axis_profile([(0, 2)])
        plan = plan_distribution(profile, 3)
        assert plan.grid == (1, 3)
        assert plan.cost == CostVector(hops=2, moved=1)
        _assert_same_plan(plan, reference_planner.plan_distribution(profile, 3))
        ranked = rank_plans(profile, 3, k=4)
        assert [pl.grid for pl in ranked] == [(1, 3), (3, 1)]

    def test_axis_tie_goes_to_the_earlier_candidate(self):
        # Axis 1 carries no traffic, so on the hop-free (1, 3) grid all
        # three of its schemes cost 0 hops: the first in axis_candidates
        # order wins, the rule benchmarks/perf/expected/ pins on every plan.
        profile = CommProfile(
            2,
            [MoveRecord((0,), (np.array([0]),), (np.array([8]),))],
            window=((0, 8), (0, 8)),
        )
        tied = axis_candidates(0, 9, 3)
        assert [c.scheme for c in tied] == list(SCHEMES)
        for plan in (plan_distribution(profile, 3), rank_plans(profile, 3, k=1)[0]):
            assert plan.grid == (1, 3)
            assert plan.cost.hops == 0
            assert plan.axes[1] == tied[0]

    def test_only_the_tied_grids_are_priced(self):
        # The tied grids' cost is assembled from the per-axis numbers:
        # every candidate is priced once, the winners no second time.
        profile = _profile(programs.figure1(n=12), replication=False)
        priced = cachestats._cell("distrib.front_price")[0]
        with obs.recording() as rec:
            plan = plan_distribution(profile, 16)
        tags = rec.find("distrib.plan")[0].tags
        assert 1 <= tags["grids_tied"] < tags["grids"]
        assert "grids_priced" not in tags
        assert cachestats._cell("distrib.front_price")[0] - priced == tags["candidates"]
        assert plan.cost == evaluate(profile, plan.to_distribution())
