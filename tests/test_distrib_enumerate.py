"""Unit tests for distribution-candidate enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis_candidates, space_size
from repro.align import align_program
from repro.distrib import build_profile, covering_block, naive_costs, naive_distributions
from repro.distrib.enumerate import DEFAULT_BLOCK_SIZES, axis_rows
from repro.distrib.vectorized import _axis_dist_params, _row_scheme
from repro.lang import programs
from repro.machine import Block, BlockCyclic, Cyclic, Identity
from repro.topology.models import factorizations, most_balanced


class TestGridFactorizations:
    def test_rank_one(self):
        assert factorizations(6, 1) == [(6,)]

    def test_rank_two(self):
        assert factorizations(4, 2) == [(1, 4), (2, 2), (4, 1)]

    def test_products_and_completeness(self):
        grids = factorizations(12, 3)
        assert all(g[0] * g[1] * g[2] == 12 for g in grids)
        assert len(grids) == len(set(grids))
        # d(12)=6 divisors; ordered factorizations into 3 parts: 18
        assert len(grids) == 18

    def test_bad_input(self):
        with pytest.raises(ValueError):
            factorizations(0, 1)
        with pytest.raises(ValueError):
            factorizations(4, 0)

    @staticmethod
    def _reference(n, rank):
        """Every integer from 1 to n tried at each level."""
        if rank == 1:
            return [(n,)]
        return [
            (p, *rest)
            for p in range(1, n + 1)
            if n % p == 0
            for rest in TestGridFactorizations._reference(n // p, rank - 1)
        ]

    def test_equals_the_trial_of_every_integer(self):
        for rank in (1, 2, 3):
            for n in range(1, 301):
                assert factorizations(n, rank) == self._reference(n, rank), (n, rank)

    def test_divisors_are_found_below_the_square_root(self):
        # 2**40 integers would be tried one by one at the top level.
        grids = factorizations(2**40, 2)
        assert grids == [(2**i, 2 ** (40 - i)) for i in range(41)]

    def test_balanced(self):
        assert most_balanced(factorizations(16, 2)) == (4, 4)
        assert most_balanced(factorizations(8, 3)) == (2, 2, 2)
        assert most_balanced(factorizations(7, 2)) in [(1, 7), (7, 1)]


class TestAxisCandidates:
    def test_covering_block(self):
        assert covering_block(100, 4) == 25
        assert covering_block(10, 3) == 4
        assert covering_block(1, 8) == 1

    def test_single_processor_collapses(self):
        cands = axis_candidates(0, 64, 1)
        assert len(cands) == 1
        assert cands[0].scheme == "block" and cands[0].block == 64

    def test_schemes_present(self):
        cands = axis_candidates(-3, 64, 4)
        schemes = [c.scheme for c in cands]
        assert schemes.count("block") == 1
        assert schemes.count("cyclic") == 1
        assert schemes.count("block-cyclic") == 3
        assert all(c.base == -3 for c in cands)
        assert all(c.nprocs == 4 for c in cands)

    def test_block_cyclic_sizes_filtered(self):
        # covering block is 2, so no block-cyclic size fits strictly
        # between cyclic (1) and block (2)
        cands = axis_candidates(0, 8, 4)
        assert [c.scheme for c in cands] == ["block", "cyclic"]


def reference_axis_candidates(lo, extent, nprocs):
    """The object enumerator the rows replaced: covering block, then
    cyclic and each listed block-cyclic size strictly inside (1, cover)."""
    cover = max(1, -(-extent // nprocs))
    out = [Block(nprocs, cover, lo)]
    if nprocs > 1:
        out.append(Cyclic(nprocs, lo))
        out += [BlockCyclic(nprocs, b, lo) for b in DEFAULT_BLOCK_SIZES if 1 < b < cover]
    return out


class TestAxisRows:
    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.integers(-4096, 4096),
        extent=st.integers(1, 4096),
        nprocs=st.integers(1, 64),
    )
    def test_candidates_are_the_object_view_of_the_rows(self, lo, extent, nprocs):
        rows = axis_rows(lo, extent, nprocs)
        cands = axis_candidates(lo, extent, nprocs)
        assert cands == [_row_scheme(*row) for row in rows]
        assert cands == reference_axis_candidates(lo, extent, nprocs)
        assert rows == [_axis_dist_params(c) for c in cands]
        assert all(type(v) is int for row in rows for v in row)


class TestNaiveBaselines:
    def _profile(self):
        plan = align_program(programs.stencil_sweep(n=32, iters=2),
                             replication=False)
        return build_profile(plan.adg, plan.alignments)

    def test_kinds(self):
        dists = naive_distributions(self._profile(), 4)
        assert isinstance(dists["all-block"].axes[0], Block)
        assert isinstance(dists["all-cyclic"].axes[0], Cyclic)
        assert isinstance(dists["identity"].axes[0], Identity)

    def test_costs_keys(self):
        costs = naive_costs(self._profile(), 4)
        assert set(costs) == {"all-block", "all-cyclic", "identity"}
        # the stencil's small shifts favour block over cyclic
        assert costs["all-block"].hops < costs["all-cyclic"].hops

    def test_space_size_counts(self):
        profile = self._profile()
        lo, hi = profile.window[0]
        # rank 1: one factorization, so the space is one axis's candidates
        assert space_size(profile, 4) == len(axis_candidates(lo, hi - lo + 1, 4))
