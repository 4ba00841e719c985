"""Unit tests for the vectorized front-pricing kernels.

The exhaustive scalar/simulator equalities live in
``tests/test_differential.py``; this file covers the machinery itself —
padding of ragged records, tensor caching and its counters, the
empty/single/degenerate fronts, and contract-violation parity with the
scalar evaluators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cachestats, obs
from repro.align import align_program
from repro.distrib import (
    axis_front_hops,
    build_profile,
    compile_front,
    evaluate_front,
    front_costs,
    naive_costs,
    naive_distributions,
    plan_distribution,
)
from repro.distrib.costmodel import CommProfile, CostVector, MoveRecord
from repro.distrib.enumerate import axis_candidates
from repro.distrib.vectorized import (
    _MODE_BLOCK,
    _MODE_IDENTITY,
    _MODE_WRAP,
    _axis_dist_params,
    _pad_rows,
)
from repro.lang import programs
from repro.lang.generate import FAMILIES, generate_scenario, topology_corpus
from repro.machine import Block, BlockCyclic, Cyclic, Distribution, Identity
from repro.machine.distribution import AxisDistribution
from repro.topology import parse_topology


def _profile(prog, **kw):
    plan = align_program(prog, **kw)
    return build_profile(plan.adg, plan.alignments)


@pytest.fixture(scope="module")
def profile():
    return _profile(programs.figure1(n=12), replication=False)


class TestPadRows:
    def test_ragged_rows_pad_with_first_coordinate(self):
        rows = [np.array([5, 6, 7]), np.array([9]), np.array([2, 3])]
        src, weight = _pad_rows(rows, [10, 20, 30])
        assert src.shape == weight.shape == (3, 3)
        # Padded slots repeat the row's own first cell (always
        # in-window) and carry zero weight.
        assert src.tolist() == [[5, 6, 7], [9, 9, 9], [2, 3, 2]]
        assert weight.tolist() == [[10, 10, 10], [20, 0, 0], [30, 30, 0]]

    def test_empty_row_contributes_nothing(self):
        src, weight = _pad_rows([np.array([], dtype=np.int64), np.array([4])], [7, 8])
        assert weight[0].tolist() == [0]
        assert weight[1].tolist() == [8]

    def test_all_empty(self):
        src, weight = _pad_rows([], [])
        assert src.shape == (0, 0) and weight.shape == (0, 0)


class TestAxisDistParams:
    def test_modes(self):
        assert _axis_dist_params(Block(4, 3, 1)) == (_MODE_BLOCK, 4, 3, 1)
        assert _axis_dist_params(Cyclic(4, 2)) == (_MODE_WRAP, 4, 1, 2)
        assert _axis_dist_params(BlockCyclic(4, 2, 0)) == (_MODE_WRAP, 4, 2, 0)
        assert _axis_dist_params(Identity()) == (_MODE_IDENTITY, 1, 1, 0)

    def test_unknown_scheme_rejected_by_name(self):
        class Weird(AxisDistribution):
            def owner(self, cell):  # pragma: no cover - never called
                return 0

        with pytest.raises(TypeError, match="no front-pricing kernel .* Weird"):
            _axis_dist_params(Weird())


class TestCompileFront:
    def test_cached_once_per_profile(self, profile):
        h0, m0 = cachestats._cell("distrib.front_tensors")
        first = compile_front(profile)
        second = compile_front(profile)
        assert first is second
        h1, m1 = cachestats._cell("distrib.front_tensors")
        # At most one compilation for this profile; the second call hit.
        assert h1 > h0

    def test_tensor_shapes_cover_every_record(self, profile):
        tensors = compile_front(profile)
        assert tensors.template_rank == profile.template_rank
        n_group_rows = sum(g.weight.shape[0] for g in tensors.groups)
        assert n_group_rows == len(profile.records)
        for front in tensors.axes:
            if front is None:
                continue
            assert front.src.shape == front.dst.shape == front.weight.shape
            assert front.lo <= front.hi

    def test_weights_zero_exactly_on_padding(self, profile):
        # Reconstruct total moved elements from the group tensors: the
        # sum of weights must equal count * len for every record.
        tensors = compile_front(profile)
        want = sum(r.count * r.src[0].size for r in profile.records if r.axes)
        got = sum(int(g.weight.sum()) for g in tensors.groups if g.axes)
        assert got == want


def _hand_profile(records, window):
    return CommProfile(len(window), list(records), window=tuple(window))


def _record(axes, pairs_per_axis, count=1):
    """A MoveRecord from per-axis ``[(src, dst), ...]`` cell pairs."""
    return MoveRecord(
        tuple(axes),
        tuple(np.array([a for a, _ in p], dtype=np.int64) for p in pairs_per_axis),
        tuple(np.array([b for _, b in p], dtype=np.int64) for p in pairs_per_axis),
        count,
    )


class TestAxisFrontPairs:
    """Axis fronts keep the distinct moving cell pairs, nothing else."""

    def test_repeated_pairs_fold_into_summed_weights(self):
        prof = _hand_profile(
            [
                _record((0,), [[(0, 1), (0, 1), (2, 2), (3, 1)]], count=5),
                _record((0,), [[(0, 1), (3, 1)]], count=2),
            ],
            [(0, 3)],
        )
        front = compile_front(prof).axes[0]
        assert front.src.tolist() == [0, 3]
        assert front.dst.tolist() == [1, 1]
        assert front.weight.tolist() == [5 + 5 + 2, 5 + 2]
        assert (front.lo, front.hi) == (0, 3)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_weights_count_the_moving_elements(self, family):
        prof = _profile(generate_scenario(3, family=family).parse())
        for t, front in enumerate(compile_front(prof).axes):
            want = sum(
                r.count
                * int(np.sum(r.src[r.axes.index(t)] != r.dst[r.axes.index(t)]))
                for r in prof.records
                if t in r.axes
            )
            if front is None:
                assert not any(t in r.axes for r in prof.records)
                continue
            assert int(front.weight.sum()) == want
            assert np.all(front.src != front.dst)
            pairs = set(zip(front.src.tolist(), front.dst.tolist()))
            assert len(pairs) == front.src.size  # distinct

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_scalar_per_candidate_on_every_topology(self, family):
        prof = _profile(generate_scenario(4, family=family).parse())
        for spec in topology_corpus(5, seed=0, nprocs=8):
            topo = parse_topology(spec)
            nprocs = topo.nprocs
            for t, (lo, hi) in enumerate(prof.window):
                grid = tuple(
                    nprocs if u == t else 1 for u in range(prof.template_rank)
                )
                if not topo.supports_grid(grid):
                    continue
                metric = topo.metrics(grid)[t]
                cands = axis_candidates(lo, hi - lo + 1, nprocs)
                hops = axis_front_hops(prof, t, cands, metric)
                for i, c in enumerate(cands):
                    assert int(hops[i]) == prof.axis_hops(
                        t, c.to_axis_distribution(), metric
                    ), (spec, t, i)

    def test_unmoved_cell_outside_the_window_still_raises(self):
        # Cell 9 never moves on axis 0, so it is in no pair — but it is
        # outside the candidates' covered range, and the scalar path
        # refuses it, so the front must too.
        prof = _hand_profile(
            [_record((0,), [[(0, 1), (9, 9)]])],
            [(0, 3)],
        )
        front = compile_front(prof).axes[0]
        assert front.src.tolist() == [0] and front.hi == 9
        cands = axis_candidates(0, 4, 2)
        with pytest.raises(ValueError, match="cell 9 outside covered range"):
            axis_front_hops(prof, 0, cands)
        with pytest.raises(ValueError, match="outside covered range"):
            prof.axis_hops(0, cands[0].to_axis_distribution())

    def test_axis_with_only_unmoved_pairs_prices_to_zero(self):
        # Every element keeps its axis-1 cell: the axis has a front (and
        # bounds to check) but no pairs.
        prof = _hand_profile(
            [_record((0, 1), [[(0, 2), (1, 3)], [(1, 1), (2, 2)]], count=3)],
            [(0, 3), (0, 3)],
        )
        front = compile_front(prof).axes[1]
        assert front is not None and front.src.size == 0
        assert (front.lo, front.hi) == (1, 2)
        cands = axis_candidates(0, 4, 4)
        assert axis_front_hops(prof, 1, cands).tolist() == [0] * len(cands)
        assert all(
            prof.axis_hops(1, c.to_axis_distribution()) == 0 for c in cands
        )


class TestGroupFrontPadding:
    """Group fronts keep the padded (records, max_len) layout."""

    @pytest.fixture()
    def ragged(self):
        empty = np.zeros(0, dtype=np.int64)
        return _hand_profile(
            [
                _record((0,), [[(5, 6), (6, 7), (7, 5)]], count=10),
                MoveRecord((0,), (empty,), (empty,), 20),
                _record((0,), [[(9, 4)]], count=30),
            ],
            [(4, 9)],
        )

    def test_ragged_rows_pad_with_first_coordinate(self, ragged):
        (group,) = compile_front(ragged).groups
        assert group.axes == (0,)
        assert group.src[0].tolist() == [[5, 6, 7], [0, 0, 0], [9, 9, 9]]
        assert group.dst[0].tolist() == [[6, 7, 5], [0, 0, 0], [4, 4, 4]]
        assert group.weight.tolist() == [[10, 10, 10], [0, 0, 0], [30, 0, 0]]

    def test_bounds_skip_empty_records_and_padding(self, ragged):
        # The empty record's row is all zeros: cell 0 is below the
        # window and must not leak into the contract bounds.
        (group,) = compile_front(ragged).groups
        assert (group.lo, group.hi) == ((4,), (9,))

    def test_empty_record_prices_to_zero(self, ragged):
        dist = Distribution((Block(2, 3, 4),))
        assert front_costs(ragged, [dist], None) == [ragged.evaluate(dist)]

    def test_all_empty_group_has_zero_bounds(self):
        empty = np.zeros(0, dtype=np.int64)
        prof = _hand_profile([MoveRecord((0,), (empty,), (empty,), 1)], [(0, 0)])
        tensors = compile_front(prof)
        assert (tensors.groups[0].lo, tensors.groups[0].hi) == ((0,), (0,))
        assert tensors.axes[0].src.size == 0
        assert axis_front_hops(prof, 0, axis_candidates(0, 1, 2)).tolist() == [0, 0]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bounds_equal_the_per_record_extremes(self, family):
        prof = _profile(generate_scenario(3, family=family).parse())
        for g in compile_front(prof).groups:
            recs = [r for r in prof.records if r.axes == g.axes]
            for j in range(len(g.axes)):
                cells = np.concatenate(
                    [a.ravel() for r in recs for a in (r.src[j], r.dst[j])]
                )
                assert (g.lo[j], g.hi[j]) == (int(cells.min()), int(cells.max()))


class TestFrontEdgeCases:
    def test_empty_front_prices_to_empty_matrix(self, profile):
        out = evaluate_front(profile, [])
        assert out.shape == (0, 3)
        assert front_costs(profile, [], None) == []

    def test_single_candidate_equals_scalar(self, profile):
        ident = Distribution.identity(profile.template_rank)
        out = evaluate_front(profile, [ident])
        cv = profile.evaluate(ident)
        assert out.shape == (1, 3)
        assert tuple(int(x) for x in out[0]) == (cv.hops, cv.moved, cv.broadcast)

    def test_communication_free_profile(self):
        # A single self-assignment has no realignment communication at
        # all: no groups, yet the front must still price correctly.
        from repro.lang import parse

        prof = _profile(parse("real A(8)\nA(1:8) = A(1:8) * 2.0"))
        ident = Distribution.identity(prof.template_rank)
        out = evaluate_front(prof, [ident, ident])
        for row in out:
            cv = prof.evaluate(ident)
            assert tuple(int(x) for x in row) == (cv.hops, cv.moved, cv.broadcast)

    def test_rank_mismatch_rejected_like_scalar(self, profile):
        bad = Distribution.identity(profile.template_rank + 1)
        with pytest.raises(ValueError, match="rank"):
            evaluate_front(profile, [bad])

    def test_contract_violation_raises_like_scalar(self, profile):
        # A base above the window's low cell violates the ownership
        # contract; the batch checker must refuse exactly like
        # validate_cells does on the scalar path.
        lo, hi = profile.window[0]
        axes = [
            Block(2, (hi - lo + 1), lo + 1) if t == 0 else Identity()
            for t in range(profile.template_rank)
        ]
        bad = Distribution(tuple(axes))
        with pytest.raises(ValueError, match="below distribution base"):
            evaluate_front(profile, [bad])
        with pytest.raises(ValueError):
            profile.evaluate(bad)

    def test_axis_front_hops_matches_scalar_per_candidate(self, profile):
        for t, (lo, hi) in enumerate(profile.window):
            cands = axis_candidates(lo, hi - lo + 1, 4)
            hops = axis_front_hops(profile, t, cands)
            assert hops.shape == (len(cands),)
            for i, c in enumerate(cands):
                assert int(hops[i]) == profile.axis_hops(
                    t, c.to_axis_distribution()
                ), (t, i)

    def test_axis_front_hops_with_metric(self, profile):
        topo = parse_topology("ring:4")
        metric = topo.axis_metric(4, 0)
        lo, hi = profile.window[0]
        cands = axis_candidates(lo, hi - lo + 1, 4)
        hops = axis_front_hops(profile, 0, cands, metric)
        for i, c in enumerate(cands):
            assert int(hops[i]) == profile.axis_hops(
                0, c.to_axis_distribution(), metric
            )

    def test_axis_front_hops_empty_candidates(self, profile):
        assert axis_front_hops(profile, 0, []).shape == (0,)

    def test_evaluate_front_method_on_profile(self, profile):
        ident = Distribution.identity(profile.template_rank)
        out = profile.evaluate_front([ident])
        cv = profile.evaluate(ident)
        assert tuple(int(x) for x in out[0]) == (cv.hops, cv.moved, cv.broadcast)


class TestCountersAndFallback:
    def test_front_price_counter_counts_candidates_priced(self, profile):
        cell = cachestats._cell("distrib.front_price")
        priced0, other0 = cell
        with obs.recording() as rec:
            plan = plan_distribution(profile, 4)
        tags = rec.find("distrib.plan")[0].tags
        # Every candidate once per axis, then the tied winners in full.
        assert cell[0] - priced0 == tags["candidates"] + tags["grids_priced"]
        assert cell[1] == other0
        assert plan.exact

    def test_naive_costs_equal_the_scalar_evaluator(self, profile):
        topo = parse_topology("torus:2x2")
        costs = naive_costs(profile, 4, topo)
        assert costs == {
            name: profile.evaluate(dist, topo)
            for name, dist in naive_distributions(profile, 4).items()
        }
        assert all(isinstance(c, CostVector) for c in costs.values())

    def test_front_costs_are_costvectors_summable(self, profile):
        ident = Distribution.identity(profile.template_rank)
        costs = front_costs(profile, [ident, ident], None)
        total = sum(costs)  # exercises CostVector.__radd__
        assert total == costs[0] + costs[1]
