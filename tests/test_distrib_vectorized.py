"""Unit tests for the vectorized front-pricing kernels.

The exhaustive scalar/simulator equalities live in
``tests/test_differential.py``; this file covers the machinery itself —
the compact front's layout and its counter, property tests of its
exactness against the scalar evaluators on random move records (per
candidate, and for the grid winners and costs the search builds from
one joined call per template axis), the
empty/single/degenerate fronts, contract-violation parity with the
scalar evaluators, and the front travelling with a pickled prefix.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from conftest import axis_candidates, axis_front_hops, axis_hops, candidate_spaces, evaluate
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cachestats, obs, parse
from repro.align import align_program
from repro.align.pipeline import planning_records, solve_prefix, solve_suffix
from repro.distrib import (
    build_profile,
    evaluate_front,
    naive_costs,
    naive_distributions,
    plan_distribution,
)
from repro.distrib.costmodel import CommProfile, CostVector, MoveRecord
from repro.distrib.enumerate import row_spaces
from repro.distrib.search import _plans, _winners
from repro.distrib.vectorized import (
    _MODE_BLOCK,
    _MODE_IDENTITY,
    _MODE_WRAP,
    _axis_dist_params,
    _row_scheme,
    axis_row_hops,
    joint_moved,
)
from repro.lang import programs
from repro.lang.generate import (
    FAMILIES,
    generate_corpus,
    generate_scenario,
    topology_corpus,
)
from repro.machine import Block, BlockCyclic, Cyclic, Distribution, Identity
from repro.machine.distribution import AxisDistribution
from repro.passes import MachineSpec
from repro.topology import parse_topology


def _profile(prog, **kw):
    plan = align_program(prog, **kw)
    return build_profile(plan.adg, plan.alignments)


@pytest.fixture(scope="module")
def profile():
    return _profile(programs.figure1(n=12), replication=False)


def _compiles() -> int:
    """Fronts compiled so far in this process (``distrib.front_tensors`` misses)."""
    return cachestats._cell("distrib.front_tensors")[1]


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
    def test_compiled_once_when_the_profile_is_built(self):
        plan = align_program(programs.figure1(n=12), replication=False)
        h0, m0 = cachestats._cell("distrib.front_tensors")
        prof = build_profile(plan.adg, plan.alignments)
        front = prof.front
        assert cachestats._cell("distrib.front_tensors") == [h0, m0 + 1]
        with obs.recording() as rec:
            plan_distribution(prof, 16)
        # One hit per pricing read and no compile: one axis_row_hops
        # call per template axis, for every grid at once.
        reads = sum(span.tags["axes"] for span in rec.find("distrib.front_price"))
        assert reads == prof.template_rank
        assert cachestats._cell("distrib.front_tensors") == [h0 + reads, m0 + 1]
        assert prof.front is front

    def test_every_moving_element_is_priced_once_for_moved(self, profile):
        # Single-axis movers carry their `moved` weight on their axis's
        # pairs, joint movers on their joint row: the two together count
        # every element that moves on some axis exactly once.
        want = sum(
            r.count
            * int(np.sum(np.any([s != d for s, d in zip(r.src, r.dst)], axis=0)))
            for r in profile.records
        )
        front = profile.front
        got = sum(int(af.moved.sum()) for af in front.axes if af is not None)
        got += sum(int(jf.weight.sum()) for jf in front.joints)
        assert got == want > 0


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


def _axis_moved(prof, axis, cand):
    """Scalar reference for ``axis_front_hops``'s ``moved``: the elements
    that move on ``axis`` alone and whose processor ``cand`` changes."""
    total = 0
    for r in prof.records:
        if axis not in r.axes:
            continue
        j = r.axes.index(axis)
        changes = cand.map(r.src[j]) != cand.map(r.dst[j])
        for i in range(len(r.axes)):
            if i != j:
                changes &= r.src[i] == r.dst[i]
        total += r.count * int(np.sum(changes))
    return total


def _assert_axis_prices(prof, axis, cands, metric=None):
    """``axis_front_hops`` equals the scalar hops and moved per candidate."""
    hops, moved = axis_front_hops(prof, axis, cands, [metric] * len(cands))
    assert hops.shape == moved.shape == (len(cands),)
    assert hops.tolist() == [axis_hops(prof, axis, c, metric) for c in cands]
    assert moved.tolist() == [_axis_moved(prof, axis, c) for c in cands]


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
        front = prof.front.axes[0]
        assert front.src.tolist() == [0, 3]
        assert front.dst.tolist() == [1, 1]
        assert front.weight.tolist() == [5 + 5 + 2, 5 + 2]
        assert front.moved.tolist() == front.weight.tolist()  # rank 1: all alone
        assert (front.lo, front.hi) == (0, 3)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_weights_count_the_moving_elements(self, family):
        prof = _profile(generate_scenario(3, family=family).parse())
        for t, front in enumerate(prof.front.axes):
            want = alone = 0
            for r in prof.records:
                if t not in r.axes:
                    continue
                j = r.axes.index(t)
                here = r.src[j] != r.dst[j]
                others = [r.src[i] != r.dst[i] for i in range(len(r.axes)) if i != j]
                want += r.count * int(np.sum(here))
                alone += r.count * int(np.sum(here & ~np.any(others, axis=0)))
            if front is None:
                assert not any(t in r.axes for r in prof.records)
                continue
            assert int(front.weight.sum()) == want
            assert int(front.moved.sum()) == alone
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
                _assert_axis_prices(prof, t, cands, metric)

    def test_unmoved_cell_outside_the_window_still_raises(self):
        # Cell 9 never moves on axis 0, so it is in no pair — but it is
        # outside the candidates' covered range, and the scalar path
        # refuses it, so the front must too.
        prof = _hand_profile(
            [_record((0,), [[(0, 1), (9, 9)]])],
            [(0, 3)],
        )
        front = prof.front.axes[0]
        assert front.src.tolist() == [0] and front.hi == 9
        cands = axis_candidates(0, 4, 2)
        with pytest.raises(ValueError, match="cell 9 outside covered range"):
            axis_front_hops(prof, 0, cands)
        with pytest.raises(ValueError, match="outside covered range"):
            axis_hops(prof, 0, cands[0])

    def test_axis_with_only_unmoved_pairs_prices_to_zero(self):
        # Every element keeps its axis-1 cell: the axis has a front (and
        # bounds to check) but no pairs.
        prof = _hand_profile(
            [_record((0, 1), [[(0, 2), (1, 3)], [(1, 1), (2, 2)]], count=3)],
            [(0, 3), (0, 3)],
        )
        front = prof.front.axes[1]
        assert front is not None and front.src.size == 0
        assert (front.lo, front.hi) == (1, 2)
        cands = axis_candidates(0, 4, 4)
        hops, moved = axis_front_hops(prof, 1, cands)
        assert hops.tolist() == moved.tolist() == [0] * len(cands)
        assert all(axis_hops(prof, 1, c) == _axis_moved(prof, 1, c) == 0 for c in cands)


class TestCompactFront:
    """The front is keyed by the axes each element moves on: no element
    that moves nowhere, a second weight for single-axis movers, and
    deduplicated joint rows for the rest."""

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

    def test_empty_record_prices_to_zero(self, ragged):
        dist = Distribution((Block(2, 3, 4),))
        (row,) = evaluate_front(ragged, [dist], None).tolist()
        assert CostVector(*row) == evaluate(ragged, dist)

    def test_an_element_unmoved_on_every_axis_is_absent(self):
        # Element 0 keeps both its cells, element 1 moves on axis 0 only
        # and element 2 on axis 1 only.
        prof = _hand_profile(
            [_record((0, 1), [[(3, 3), (0, 1), (2, 2)], [(3, 3), (1, 1), (0, 2)]], count=4)],
            [(0, 3), (0, 3)],
        )
        ax0, ax1 = prof.front.axes
        assert (ax0.src.tolist(), ax0.dst.tolist()) == ([0], [1])
        assert (ax1.src.tolist(), ax1.dst.tolist()) == ([0], [2])
        assert ax0.weight.tolist() == ax0.moved.tolist() == [4]
        assert ax1.weight.tolist() == ax1.moved.tolist() == [4]
        assert prof.front.joints == ()
        # ... but its cells still bound the axes for the contract checks.
        assert (ax0.lo, ax0.hi) == (ax1.lo, ax1.hi) == (0, 3)

    def test_moved_weight_counts_only_single_axis_movers(self):
        # Element 0 moves on axis 0 alone; element 1 on both axes, with
        # the same axis-0 pair.
        prof = _hand_profile(
            [_record((0, 1), [[(0, 1), (0, 1)], [(1, 1), (1, 2)]], count=2)],
            [(0, 3), (0, 3)],
        )
        ax0, ax1 = prof.front.axes
        assert (ax0.weight.tolist(), ax0.moved.tolist()) == ([4], [2])
        assert (ax1.weight.tolist(), ax1.moved.tolist()) == ([2], [0])
        (joint,) = prof.front.joints
        assert joint.axes == (0, 1)
        assert (joint.src.tolist(), joint.dst.tolist()) == ([[0], [1]], [[1], [2]])
        assert joint.weight.tolist() == [2]
        # Element 1 changes processor on both axes and is moved once.
        ident = Distribution.identity(2)
        (row,) = evaluate_front(prof, [ident]).tolist()
        assert CostVector(*row) == evaluate(prof, ident) == CostVector(hops=6, moved=4)

    def test_joint_rows_are_deduplicated(self):
        # Keyed by the axes an element moves on, not by its record's: the
        # rank-3 record's first two elements and the (0, 2) record's one
        # element all move on axes 0 and 2 with the same cells.
        prof = _hand_profile(
            [
                _record(
                    (0, 1, 2),
                    [[(0, 1), (0, 1), (0, 1)], [(5, 5), (5, 5), (1, 2)], [(2, 3), (2, 3), (2, 3)]],
                ),
                _record((0, 2), [[(0, 1)], [(2, 3)]], count=3),
            ],
            [(0, 5)] * 3,
        )
        assert [j.axes for j in prof.front.joints] == [(0, 1, 2), (0, 2)]
        full, pair = prof.front.joints
        assert (full.src.tolist(), full.dst.tolist()) == ([[0], [1], [2]], [[1], [2], [3]])
        assert full.weight.tolist() == [1]
        assert (pair.src.tolist(), pair.dst.tolist()) == ([[0], [2]], [[1], [3]])
        assert pair.weight.tolist() == [1 + 1 + 3]
        assert prof.front.axes[0].moved.tolist() == [0]

    def test_joint_rows_too_wide_for_one_integer_key_still_fold(self):
        # Six cell rows spanning 2 000 cells each: the mixed-radix key
        # would need 2000**6 > 2**63 values, so the rows are lexsorted.
        far = 1999
        prof = _hand_profile(
            [
                _record((0, 1, 2), [[(0, far), (far, 0)]] * 3, count=2),
                _record((0, 1, 2), [[(0, far)]] * 3, count=5),
            ],
            [(0, far)] * 3,
        )
        (joint,) = prof.front.joints
        assert joint.src.T.tolist() == [[0, 0, 0], [far, far, far]]
        assert joint.weight.tolist() == [2 + 5, 2]
        dists = [
            Distribution((Block(2, 1000, 0), Cyclic(4), Block(4, 500, 0))),
            Distribution.identity(3),
        ]
        costs = [CostVector(*row) for row in evaluate_front(prof, dists).tolist()]
        assert costs == [evaluate(prof, d) for d in dists]

    def test_empty_records_leave_no_axis_front(self):
        empty = np.zeros(0, dtype=np.int64)
        prof = _hand_profile([MoveRecord((0,), (empty,), (empty,), 1)], [(0, 0)])
        assert prof.front.axes == (None,) and prof.front.joints == ()
        hops, moved = axis_front_hops(prof, 0, axis_candidates(0, 1, 2))
        assert hops.tolist() == moved.tolist() == [0, 0]
        assert joint_moved(prof, np.array([[_axis_dist_params(Identity())]])).tolist() == [0]
        ident = Distribution.identity(1)
        (row,) = evaluate_front(prof, [ident]).tolist()
        assert CostVector(*row) == evaluate(prof, ident)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bounds_equal_the_per_axis_extremes(self, family):
        prof = _profile(generate_scenario(3, family=family).parse())
        for t, front in enumerate(prof.front.axes):
            cells = [
                a.ravel()
                for r in prof.records
                if t in r.axes
                for a in (r.src[r.axes.index(t)], r.dst[r.axes.index(t)])
            ]
            if front is None:
                assert not cells
                continue
            cells = np.concatenate(cells)
            assert (front.lo, front.hi) == (int(cells.min()), int(cells.max()))


#: Cells 0 .. WIDTH - 1 on every axis: few enough that pairs repeat.
WIDTH = 6


@st.composite
def move_profiles(draw):
    """A profile of random move records: 1–3 template axes, elements
    that move on 0, 1, 2 or 3 of their record's axes, repeated cell pairs
    and records, and empty records."""
    rank = draw(st.integers(1, 3))
    cell = st.integers(0, WIDTH - 1)
    records = []
    for _ in range(draw(st.integers(0, 4))):
        axes = tuple(sorted(draw(st.sets(st.integers(0, rank - 1), min_size=1))))
        src: list[list[int]] = [[] for _ in axes]
        dst: list[list[int]] = [[] for _ in axes]
        for _ in range(draw(st.integers(0, 5))):
            moves_on = draw(st.sets(st.sampled_from(range(len(axes)))))
            for j in range(len(axes)):
                a = draw(cell)
                src[j].append(a)
                dst[j].append((a + draw(st.integers(1, WIDTH - 1))) % WIDTH if j in moves_on else a)
        records.append(
            MoveRecord(
                axes,
                tuple(np.array(c, dtype=np.int64) for c in src),
                tuple(np.array(c, dtype=np.int64) for c in dst),
                draw(st.integers(1, 3)),
            )
        )
    if records and draw(st.booleans()):
        records.append(dataclasses.replace(records[0]))
    return _hand_profile(records, [(0, WIDTH - 1)] * rank)


@pytest.mark.parametrize("spec", [None, *topology_corpus(5, seed=0, nprocs=8)], ids=str)
@settings(max_examples=30, deadline=None)
@given(prof=move_profiles())
def test_the_compact_front_prices_like_the_scalar_evaluators(spec, prof):
    """On the L1 grid and on every topology family: ``axis_front_hops``
    equals ``axis_hops`` and the scalar per-axis ``moved`` for every
    per-axis candidate, and ``evaluate_front`` equals ``evaluate`` for
    every full candidate."""
    topo = None if spec is None else parse_topology(spec)
    dists = []
    for grid, cands in candidate_spaces(prof, 8, topology=topo):
        metrics = (None,) * len(grid) if topo is None else topo.metrics(grid)
        for t, (clist, metric) in enumerate(zip(cands, metrics)):
            _assert_axis_prices(prof, t, clist, metric)
        for combo in itertools.product(*cands):
            dists.append(Distribution(combo))
    costs = [CostVector(*row) for row in evaluate_front(prof, dists, topo).tolist()]
    assert costs == [evaluate(prof, d, topo) for d in dists]


def _assert_joined_winners_exact(prof, nprocs, topo):
    """The grid winners of one joined pricing call are those of each grid
    priced alone, and each cost assembled from the per-axis numbers
    equals its ``evaluate_front`` row and ``profile.evaluate``."""
    spaces = list(row_spaces(prof, nprocs, topology=topo))
    if not spaces:
        return
    joined = _winners(prof, spaces, topo)
    assert joined == [_winners(prof, [space], topo)[0] for space in spaces]
    costs = [plan.cost for plan in _plans(prof, joined, 0, topo)]
    dists = [Distribution(tuple(_row_scheme(*row) for row in axes)) for axes, _, _ in joined]
    assert costs == [CostVector(*row) for row in evaluate_front(prof, dists, topo).tolist()]
    assert costs == [evaluate(prof, d, topo) for d in dists]


@pytest.mark.parametrize("spec", [None, *topology_corpus(5, seed=0, nprocs=8)], ids=str)
@settings(max_examples=30, deadline=None)
@given(prof=move_profiles())
def test_joined_grid_winners_equal_each_grid_priced_alone(spec, prof):
    """Random profiles with elements moving on 2 or 3 axes (joint rows)
    and ties everywhere, including at the slice boundaries between
    grids, on the L1 grid and on every topology family."""
    _assert_joined_winners_exact(prof, 8, None if spec is None else parse_topology(spec))


#: The generated programs of the two corpora whose fronts carry joint rows.
JOINT_PROGRAMS = {
    (14, 0): ("twod_5", "twod_12", "wavefront_13"),
    (42, 5): ("twod_500020", "wavefront_500021", "twod_500027", "twod_500048"),
}


@pytest.mark.parametrize(
    "size,seed,name",
    [(size, seed, name) for (size, seed), names in JOINT_PROGRAMS.items() for name in names],
)
def test_joined_grid_winners_on_generated_joint_programs(size, seed, name):
    (scenario,) = [sc for sc in generate_corpus(size, seed=seed) if sc.name == name]
    prof = _profile(scenario.parse())
    assert prof.front.joints
    for nprocs in (16, 64):
        _assert_joined_winners_exact(prof, nprocs, None)
        for spec in topology_corpus(5, seed=0, nprocs=nprocs):
            _assert_joined_winners_exact(prof, nprocs, parse_topology(spec))


class TestFrontEdgeCases:
    def test_empty_front_prices_to_empty_matrix(self, profile):
        out = evaluate_front(profile, [])
        assert out.shape == (0, 3)

    def test_single_candidate_equals_scalar(self, profile):
        ident = Distribution.identity(profile.template_rank)
        out = evaluate_front(profile, [ident])
        cv = evaluate(profile, ident)
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
            cv = evaluate(prof, ident)
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
            evaluate(profile, bad)

    def test_axis_front_hops_matches_scalar_per_candidate(self, profile):
        for t, (lo, hi) in enumerate(profile.window):
            cands = axis_candidates(lo, hi - lo + 1, 4)
            _assert_axis_prices(profile, t, cands)

    def test_axis_front_hops_with_metric(self, profile):
        topo = parse_topology("ring:4")
        metric = topo.axis_metric(4, 0)
        lo, hi = profile.window[0]
        cands = axis_candidates(lo, hi - lo + 1, 4)
        _assert_axis_prices(profile, 0, cands, metric)

    def test_axis_front_hops_with_one_metric_per_row(self, profile):
        # Two grids' candidate lists joined in one call, each priced with
        # its own grid's metric, equal each list priced alone.
        lo, hi = profile.window[0]
        ring4 = parse_topology("ring:4").axis_metric(4, 0)
        ring2 = parse_topology("ring:2").axis_metric(2, 0)
        four = axis_candidates(lo, hi - lo + 1, 4)
        two = axis_candidates(lo, hi - lo + 1, 2)
        hops, moved = axis_front_hops(
            profile, 0, four + two, [ring4] * len(four) + [ring2] * len(two)
        )
        alone = [
            axis_front_hops(profile, 0, four, [ring4] * len(four)),
            axis_front_hops(profile, 0, two, [ring2] * len(two)),
        ]
        assert hops.tolist() == alone[0][0].tolist() + alone[1][0].tolist()
        assert moved.tolist() == alone[0][1].tolist() + alone[1][1].tolist()

    def test_axis_front_hops_empty_candidates(self, profile):
        hops, moved = axis_front_hops(profile, 0, [])
        assert hops.shape == moved.shape == (0,)

    def test_contract_error_names_the_scheme_record(self):
        # Joined over two grids, the violating candidate is named by its
        # record, not by its index in a list the caller never built.
        prof = _hand_profile([_record((0,), [[(0, 1), (9, 9)]])], [(0, 3)])
        cands = [Cyclic(4, 0)] + axis_candidates(0, 4, 2)
        with pytest.raises(
            ValueError,
            match=r"^Block\(nprocs=2, block=2, base=0\): cell 9 outside covered range",
        ):
            axis_front_hops(prof, 0, cands)
        with pytest.raises(ValueError, match=r"^Cyclic\(nprocs=2, base=1\): cell 0 below"):
            axis_front_hops(prof, 0, [Cyclic(2, 1)])

    @pytest.mark.parametrize(
        "cands,message",
        [
            (
                [Cyclic(4, 0), Block(2, 2, 0), Cyclic(2, 0)],
                "Block(nprocs=2, block=2, base=0): cell 9 outside covered range [0, 4)",
            ),
            (
                [Block(4, 1, 0), BlockCyclic(2, 2, 1)],
                "BlockCyclic(nprocs=2, block=2, base=1): cell 0 below distribution base 1",
            ),
            ([Cyclic(2, 1)], "Cyclic(nprocs=2, base=1): cell 0 below distribution base 1"),
            (
                [BlockCyclic(2, 1, 1)],
                "BlockCyclic(nprocs=2, block=1, base=1): cell 0 below distribution base 1",
            ),
        ],
    )
    def test_rows_raise_the_records_contract_error(self, cands, message):
        # Records (evaluate_front's input) are named as given; bare rows
        # by the record the enumerator builds from them, only to raise (a
        # wrap row of block 1 is Cyclic).
        prof = _hand_profile([_record((0,), [[(0, 1), (9, 9)]])], [(0, 3)])
        with pytest.raises(ValueError) as err:
            evaluate_front(prof, [Distribution((c,)) for c in cands])
        assert str(err.value) == message
        rows = np.array([_axis_dist_params(c) for c in cands], dtype=np.int64)
        with pytest.raises(ValueError) as err:
            axis_row_hops(prof, 0, rows)
        assert str(err.value) == message.replace(
            "BlockCyclic(nprocs=2, block=1, base=1)", "Cyclic(nprocs=2, base=1)"
        )


class TestCountersAndFallback:
    def test_front_price_counter_counts_candidates_priced(self, profile):
        cell = cachestats._cell("distrib.front_price")
        priced0, other0 = cell
        with obs.recording() as rec:
            plan = plan_distribution(profile, 4)
        tags = rec.find("distrib.plan")[0].tags
        # Every candidate once per axis; the tied winners are not priced
        # again, their cost is assembled from those numbers.
        assert cell[0] - priced0 == tags["candidates"]
        assert cell[1] == other0
        assert plan.exact

    def test_naive_costs_equal_the_scalar_evaluator(self, profile):
        topo = parse_topology("torus:2x2")
        costs = naive_costs(profile, 4, topo)
        assert costs == {
            name: evaluate(profile, dist, topo)
            for name, dist in naive_distributions(profile, 4).items()
        }
        assert all(isinstance(c, CostVector) for c in costs.values())

    def test_front_rows_as_costvectors_are_summable(self, profile):
        ident = Distribution.identity(profile.template_rank)
        costs = [CostVector(*row) for row in evaluate_front(profile, [ident, ident]).tolist()]
        total = sum(costs)  # exercises CostVector.__radd__
        assert total == costs[0] + costs[1]


#: The nine machines of the ``machine_sweep`` benchmark workload.
SWEEP_MACHINES = (
    "grid:4x4", "torus:4x4", "ring:16", "hypercube:16", "hier:(grid:2)/(grid:8)@16",
    "grid:8x8", "torus:8x8", "ring:64", "hypercube:64",
)  # fmt: skip

class TestFrontTravelsWithThePrefix:
    """The front is compiled once, in comm-profile, and every copy of the
    prefix carries it: the suffix only reads it."""

    def test_a_prefix_pickled_now_compiles_nothing_when_loaded_and_swept(
        self, corpus_kernels
    ):
        options, _ = planning_records()
        solved = solve_prefix(parse(corpus_kernels["figure1"], name="figure1"), options)
        blob = pickle.dumps(solved, protocol=pickle.HIGHEST_PROTOCOL)
        hits, compiled = cachestats._cell("distrib.front_tensors")
        ctx = pickle.loads(blob)
        for spec in SWEEP_MACHINES:
            solve_suffix(ctx.fork(), MachineSpec.of(topology=spec))
        assert _compiles() == compiled
        assert cachestats._cell("distrib.front_tensors")[0] > hits

    @pytest.mark.parametrize("kernel", ["figure1", "skewed_wavefront"])
    def test_one_prefix_compiles_one_front_for_every_fork(self, corpus_kernels, kernel):
        options, _ = planning_records()
        before = _compiles()
        prefix = solve_prefix(parse(corpus_kernels[kernel], name=kernel), options)
        assert _compiles() == before + 1  # the prefix's comm-profile
        for spec in SWEEP_MACHINES:
            hits = cachestats._cell("distrib.front_tensors")[0]
            solve_suffix(prefix.fork(), MachineSpec.of(topology=spec))
            assert cachestats._cell("distrib.front_tensors")[0] > hits, spec
        assert _compiles() == before + 1


@pytest.fixture(scope="module")
def kernel_profiles(corpus_kernels) -> dict:
    """Kernel name -> its comm profile, for the 16 pinned kernels."""
    options, _ = planning_records()
    return {
        name: solve_prefix(parse(source, name=name), options).get("profile")
        for name, source in corpus_kernels.items()
    }


#: One machine of every topology family.
FAMILY_MACHINES = SWEEP_MACHINES[:5]


@pytest.mark.parametrize("spec", [None, *FAMILY_MACHINES])
def test_the_identity_front_price_is_the_scalar_reference(kernel_profiles, spec):
    """What the batch engine's second oracle prices: the front's price of
    the identity distribution, which must equal the scalar walk of the
    records on every kernel, under the open grid and every topology
    family."""
    from repro.topology import topology_kinds

    assert {parse_topology(s).kind for s in FAMILY_MACHINES} == set(topology_kinds())
    topo = None if spec is None else parse_topology(spec)
    assert len(kernel_profiles) == 16
    for name, profile in kernel_profiles.items():
        ident = Distribution.identity(profile.template_rank)
        (row,) = evaluate_front(profile, [ident], topo).tolist()
        assert CostVector(*row) == evaluate(profile, ident, topo), name
