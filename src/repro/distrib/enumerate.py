"""Candidate generation for the distribution planner.

The search space has two nested choices: the *shape* of the processor
grid (an ordered factorization of the machine size P over the template
axes) and, per axis, the *scheme* — block with the covering block size,
cyclic, or block-cyclic with a small block.  This module enumerates
both, and builds the three naive uniform baselines (all-block,
all-cyclic, identity) the planner is benchmarked against.

A per-axis scheme is enumerated once, as a front row ``(mode, nprocs,
block, base)`` of integers (:func:`axis_rows`, :func:`row_spaces`): the
search prices whole fronts of rows and builds a scheme record of
:mod:`repro.machine.distribution` only for each winner.
:func:`axis_candidates` and :func:`candidate_spaces` are the records'
view of the same rows, for callers that price one scheme at a time.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..machine.distribution import AxisDistribution, Distribution, covering_block, uniform
from ..topology import Topology
from ..topology.models import factorizations, most_balanced
from .costmodel import CommProfile, CostVector
from .vectorized import _MODE_BLOCK, _MODE_WRAP, _row_scheme, front_costs

#: The block-cyclic block sizes every axis tries (ascending).
DEFAULT_BLOCK_SIZES = (2, 4, 8)


def grid_factorizations(nprocs: int, rank: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of ``nprocs`` into ``rank`` axis counts.

    ``grid_factorizations(4, 2) == [(1, 4), (2, 2), (4, 1)]``.  The
    order is deterministic (lexicographic) so search results are
    stable.  Delegates to the one enumerator shared with the topology
    defaults (:func:`repro.topology.models.factorizations`), so the
    planner's candidate space and the machines' own grid choices can
    never diverge.
    """
    return factorizations(nprocs, rank)


def balanced_factorization(nprocs: int, rank: int) -> tuple[int, ...]:
    """The most nearly-cubic grid shape (minimal max/min spread)."""
    return most_balanced(grid_factorizations(nprocs, rank))


#: One per-axis candidate as a front row: ``(mode, nprocs, block, base)``
#: in the codes of :mod:`repro.distrib.vectorized`.
Row = tuple[int, int, int, int]


def axis_rows(lo: int, extent: int, nprocs: int) -> list[Row]:
    """All axis schemes for one template axis on ``nprocs`` processors,
    as front rows, in enumeration order:

    * block, with the covering block size (smaller blocks would leave
      cells of the window un-owned — a contract violation);
    * cyclic (only meaningful for nprocs > 1);
    * block-cyclic for each of :data:`DEFAULT_BLOCK_SIZES` strictly
      between 1 (= cyclic) and the covering block (= block).

    On one processor every scheme is the same no-communication mapping,
    so a single covering block row is emitted.  This is the one
    enumeration: :func:`axis_candidates` is its object view.
    """
    cover = covering_block(extent, nprocs)
    rows = [(_MODE_BLOCK, nprocs, cover, lo)]
    if nprocs > 1:
        rows.append((_MODE_WRAP, nprocs, 1, lo))
        rows.extend((_MODE_WRAP, nprocs, b, lo) for b in DEFAULT_BLOCK_SIZES if 1 < b < cover)
    return rows


def axis_candidates(lo: int, extent: int, nprocs: int) -> list[AxisDistribution]:
    """:func:`axis_rows` as scheme records (:class:`Block`,
    :class:`Cyclic`, :class:`BlockCyclic`)."""
    return [_row_scheme(*row) for row in axis_rows(lo, extent, nprocs)]


def row_spaces(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> Iterator[tuple[tuple[int, ...], list[list[Row]]]]:
    """Yield ``(grid shape, per-axis row lists)`` per factorization,
    over the profile's window (per-axis ``(lo, hi)`` cells).

    ``topology`` drops grid shapes the machine cannot realize (e.g. a
    hypercube only folds onto power-of-two axis counts); the default
    grid machine accepts every factorization.
    """
    for grid in grid_factorizations(nprocs, profile.template_rank):
        if topology is not None and not topology.supports_grid(grid):
            continue
        yield grid, [
            axis_rows(lo, hi - lo + 1, p) for (lo, hi), p in zip(profile.window, grid)
        ]


def candidate_spaces(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> Iterator[tuple[tuple[int, ...], list[list[AxisDistribution]]]]:
    """:func:`row_spaces` with every row as its scheme record."""
    for grid, rows in row_spaces(profile, nprocs, topology):
        yield grid, [[_row_scheme(*row) for row in axis] for axis in rows]


def covered_size(spaces: Iterable[tuple[tuple[int, ...], Sequence[Sequence]]]) -> int:
    """Candidate distributions covered by ``spaces``: the per-grid
    cross-product of the per-axis candidate lists (rows or records),
    summed over grids."""
    return sum(math.prod(len(c) for c in cands) for _, cands in spaces)


def space_size(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> int:
    """Total number of candidate distributions across all grid shapes."""
    return covered_size(row_spaces(profile, nprocs, topology))


def naive_distributions(
    profile: CommProfile, nprocs: int
) -> dict[str, Distribution]:
    """The three uniform baselines the planner must beat or match.

    ``all-block`` and ``all-cyclic`` live on the most balanced grid
    shape; ``identity`` is the paper's analytic one-processor-per-cell
    machine (an unbounded-resource lower bound for locality, but not
    for hops: blocks contract the grid metric).
    """
    rank = profile.template_rank
    grid = balanced_factorization(nprocs, rank)
    return {
        "all-block": uniform("block", profile.window, grid),
        "all-cyclic": uniform("cyclic", profile.window, grid),
        "identity": Distribution.identity(rank),
    }


def naive_costs(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> dict[str, CostVector]:
    """Modeled cost of each naive baseline (priced on ``topology``),
    as one :func:`~repro.distrib.vectorized.front_costs` front."""
    naive = naive_distributions(profile, nprocs)
    costs = front_costs(profile, list(naive.values()), topology)
    return dict(zip(naive.keys(), costs))
