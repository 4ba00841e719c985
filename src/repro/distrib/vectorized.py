"""Vectorized batch pricing of whole candidate enumerations.

The scalar evaluators (:meth:`CommProfile.axis_hops`,
:meth:`CommProfile.evaluate`) walk the move records in Python once per
candidate — fine for a single plan, dominant in a search that prices
hundreds of (scheme, grid) candidates per program.  This module is what
the planner prices with: an *entire enumeration front* in a handful of
broadcasted NumPy ops:

* :func:`compile_front` compiles each profile's move records **once per
  profile**, cached on the profile and instrumented under the
  ``distrib.front_tensors`` cachestats counter.  Per template axis it
  keeps only the distinct ``(source cell, destination cell)`` pairs that
  differ on that axis, each with its summed weight — an axis's hop
  total depends on nothing else; per active-axes signature it stacks the
  ragged coordinate arrays into padded 2-D tensors (rows = records,
  columns = elements, padded slots carry zero weight), because ``moved``
  needs every element's mask over all axes;
* :func:`axis_front_hops` maps one axis's cell pairs to processor
  coordinates for *all* candidate axis schemes at once — scheme
  parameters become broadcast arrays, the topology's vectorized metric
  kernels (:meth:`~repro.topology.AxisMetric.hops`) price the whole
  ``(candidates, pairs)`` array in one call — and returns the
  per-candidate hop totals the per-axis argmin consumes;
* :func:`evaluate_front` prices full candidate distributions over the
  padded group tensors and returns an ``(n_candidates, 3)`` cost matrix
  with columns ``(hops, moved, broadcast)``.

The scalar evaluators stay as the reference: every number produced
here is an exact integer equal to theirs and to the machine simulator
(asserted per scenario and per topology family in
``tests/test_differential.py``).  The ``distrib.front_price`` counter
records how many candidates were priced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cachestats import _cell
from ..machine.distribution import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    Identity,
)
from ..topology import AxisMetric, Topology, distribution_metrics_batch

# Candidates priced, in slot 0 (the cell's "hits"; slot 1 stays 0).
_FRONT_STATS = _cell("distrib.front_price")
# [tensor-cache hits, tensor compilations] per profile.
_TENSOR_STATS = _cell("distrib.front_tensors")

# Candidates per broadcast chunk in evaluate_front: bounds peak memory
# at chunk * records * elements without changing any result.
_CHUNK = 64

# Scheme codes for the broadcast kernels.
_MODE_BLOCK = 0  # proc = (cell - base) // block
_MODE_WRAP = 1  # proc = ((cell - base) // block) % nprocs  (block=1: cyclic)
_MODE_IDENTITY = 2  # proc = cell


@dataclass(frozen=True)
class AxisFront:
    """The distinct cell pairs of every record touching one template axis.

    An axis's hop total is a function of the multiset of ``(source
    cell, destination cell)`` pairs on that axis alone, so the front
    keeps one entry per distinct pair with ``src != dst`` (an unmoved
    pair is zero hops under every scheme): ``src``/``dst`` are
    ``(pairs,)`` int64 arrays and ``weight`` sums the fold ``count`` of
    every element carrying that pair.  ``lo``/``hi`` bound *all* the
    axis's coordinates, unmoved ones included, for contract checks.
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    lo: int
    hi: int


@dataclass(frozen=True)
class GroupFront:
    """Padded tensors of all records sharing one active-axes signature.

    Full-distribution pricing needs the per-record element mask "moved
    on *any* active axis", so records are grouped by their ``axes``
    tuple; ``src[j]``/``dst[j]`` are the ``(records, max_len)`` tensors
    of active axis ``axes[j]``, sharing one ``weight``/padding layout.
    """

    axes: tuple[int, ...]
    src: tuple[np.ndarray, ...]
    dst: tuple[np.ndarray, ...]
    weight: np.ndarray
    lo: tuple[int, ...]
    hi: tuple[int, ...]


@dataclass(frozen=True)
class FrontTensors:
    """Everything :func:`axis_front_hops`/:func:`evaluate_front` need,
    compiled once per profile."""

    template_rank: int
    axes: tuple[Optional[AxisFront], ...]
    groups: tuple[GroupFront, ...]


def _pad_rows(rows: Sequence[np.ndarray], counts: Sequence[int]):
    """Stack ragged 1-D rows into (R, L) tensors plus the weight mask."""
    n = len(rows)
    length = max((r.size for r in rows), default=0)
    src = np.zeros((n, length), dtype=np.int64)
    weight = np.zeros((n, length), dtype=np.int64)
    for i, (row, count) in enumerate(zip(rows, counts)):
        if not row.size:
            continue  # an empty record prices to zero via its weights
        src[i, : row.size] = row
        src[i, row.size :] = row[0]  # pad in-window: the row's first cell
        weight[i, : row.size] = count
    return src, weight


def _axis_front(
    srcs: Sequence[np.ndarray], dsts: Sequence[np.ndarray], counts: Sequence[int]
) -> AxisFront:
    """Fold one axis's per-record coordinate rows into distinct pairs."""
    src = np.concatenate(srcs).astype(np.int64, copy=False)
    dst = np.concatenate(dsts).astype(np.int64, copy=False)
    # Bounds first: an unmoved cell outside a candidate's covered range
    # is still a contract violation.
    lo = int(min(src.min(), dst.min())) if src.size else 0
    hi = int(max(src.max(), dst.max())) if src.size else 0
    weight = np.repeat(
        np.asarray(counts, dtype=np.int64), [row.size for row in srcs]
    )
    moving = src != dst
    src, dst, weight = src[moving], dst[moving], weight[moving]
    order = np.lexsort((dst, src))
    src, dst, weight = src[order], dst[order], weight[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(first)
    return AxisFront(
        src[starts], dst[starts], np.add.reduceat(weight, starts), lo, hi
    )


def compile_front(profile) -> FrontTensors:
    """The profile's pricing tensors, compiled once and cached.

    The cache lives on the profile instance, so it ships with the
    profile across process pools and dies with it; hits and
    compilations are counted under ``distrib.front_tensors``.
    """
    cached = getattr(profile, "_front_tensors", None)
    if cached is not None:
        _TENSOR_STATS[0] += 1
        return cached
    _TENSOR_STATS[1] += 1

    rank = profile.template_rank
    # -- per-axis fronts: the distinct moving cell pairs of every record
    # touching axis t.
    axes: list[Optional[AxisFront]] = []
    for t in range(rank):
        srcs, dsts, counts = [], [], []
        for r in profile.records:
            if t not in r.axes:
                continue
            j = r.axes.index(t)
            srcs.append(r.src[j].ravel())
            dsts.append(r.dst[j].ravel())
            counts.append(r.count)
        axes.append(_axis_front(srcs, dsts, counts) if srcs else None)

    # -- per-signature groups for full-distribution pricing.
    by_axes: dict[tuple[int, ...], list] = {}
    for r in profile.records:
        by_axes.setdefault(r.axes, []).append(r)
    groups = []
    for sig, recs in by_axes.items():
        counts = [r.count for r in recs]
        srcs = []
        dsts = []
        for j in range(len(sig)):
            s, weight = _pad_rows([r.src[j].ravel() for r in recs], counts)
            d, _ = _pad_rows([r.dst[j].ravel() for r in recs], counts)
            srcs.append(s)
            dsts.append(d)
        # Bounds over the valid slots only: padding repeats in-window
        # cells, but an empty record's row is all zeros.
        valid = weight > 0
        cells = [np.concatenate((s[valid], d[valid])) for s, d in zip(srcs, dsts)]
        lo = tuple(int(c.min()) if c.size else 0 for c in cells)
        hi = tuple(int(c.max()) if c.size else 0 for c in cells)
        groups.append(GroupFront(sig, tuple(srcs), tuple(dsts), weight, lo, hi))

    tensors = FrontTensors(rank, tuple(axes), tuple(groups))
    profile._front_tensors = tensors
    return tensors


# -- scheme parameters as broadcast arrays ------------------------------------


def _axis_dist_params(ax) -> tuple[int, int, int, int]:
    """(mode, nprocs, block, base) of one AxisDistribution instance."""
    if isinstance(ax, Block):
        return (_MODE_BLOCK, ax.nprocs, ax.block, ax.base)
    if isinstance(ax, Cyclic):
        return (_MODE_WRAP, ax.nprocs, 1, ax.base)
    if isinstance(ax, BlockCyclic):
        return (_MODE_WRAP, ax.nprocs, ax.block, ax.base)
    if isinstance(ax, Identity):
        return (_MODE_IDENTITY, 1, 1, 0)
    raise TypeError(
        f"no front-pricing kernel for axis distribution "
        f"{type(ax).__name__}: the planner prices Block, Cyclic, "
        "BlockCyclic and Identity"
    )


def _check_contract(
    mode: np.ndarray,
    p: np.ndarray,
    block: np.ndarray,
    base: np.ndarray,
    lo: int,
    hi: int,
) -> None:
    """Mirror :func:`repro.machine.distribution.validate_cells` for the
    whole candidate batch: same violations, same ValueError."""
    owned = mode != _MODE_IDENTITY
    below = owned & (lo < base)
    if np.any(below):
        i = int(np.argmax(below))
        raise ValueError(
            f"candidate {i}: cell {lo} below distribution base {int(base[i])}"
        )
    blocked = mode == _MODE_BLOCK
    over = blocked & (hi >= base + p * block)
    if np.any(over):
        i = int(np.argmax(over))
        raise ValueError(
            f"candidate {i}: cell {hi} outside covered range "
            f"[{int(base[i])}, {int(base[i] + p[i] * block[i])})"
        )


def _proc_coords(
    cells: np.ndarray,
    mode: np.ndarray,
    p: np.ndarray,
    block: np.ndarray,
    base: np.ndarray,
) -> np.ndarray:
    """Processor coordinates of ``cells`` under every candidate at
    once: ``(C,) + cells.shape`` via broadcasting.

    Cyclic is block-cyclic with block 1, so the wrap modes share one
    kernel; identity rows pass coordinates through unchanged.
    """
    shape = (-1,) + (1,) * cells.ndim
    mode_b = mode.reshape(shape)
    q = (cells[None] - base.reshape(shape)) // block.reshape(shape)
    proc = np.where(mode_b == _MODE_BLOCK, q, np.mod(q, p.reshape(shape)))
    return np.where(mode_b == _MODE_IDENTITY, cells[None], proc)


def _metric_hops(
    metric: Optional[AxisMetric], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    # None is the paper's open chain; every registered metric kernel is
    # elementwise-broadcasting, so whole candidate tensors go through in
    # one call.
    if metric is None:
        return np.abs(a - b)
    return metric.hops(a, b)


# -- front pricing ------------------------------------------------------------


def axis_front_hops(
    profile,
    axis: int,
    cands: Sequence,
    metric: Optional[AxisMetric] = None,
) -> np.ndarray:
    """Hop totals of one template axis for a whole candidate front.

    ``cands`` is the per-axis candidate list of the enumeration
    (:class:`~repro.distrib.plan.AxisPlan` values, or anything exposing
    ``to_axis_distribution``); the result is an int64 ``(len(cands),)``
    array, entry ``i`` exactly equal to
    ``profile.axis_hops(axis, cands[i].to_axis_distribution(), metric)``.
    """
    front = compile_front(profile).axes[axis]
    _FRONT_STATS[0] += len(cands)
    if front is None or not len(cands):
        return np.zeros(len(cands), dtype=np.int64)
    params = [
        _axis_dist_params(
            c.to_axis_distribution() if hasattr(c, "to_axis_distribution") else c
        )
        for c in cands
    ]
    mode, p, block, base = (
        np.array([pr[k] for pr in params], dtype=np.int64) for k in range(4)
    )
    _check_contract(mode, p, block, base, front.lo, front.hi)
    ps = _proc_coords(front.src, mode, p, block, base)
    pd = _proc_coords(front.dst, mode, p, block, base)
    hops = _metric_hops(metric, ps, pd)
    return np.sum(front.weight[None] * hops, axis=1, dtype=np.int64)


def _front_metrics(
    topology: Optional[Topology], dists: Sequence[Distribution]
) -> list[tuple[Optional[AxisMetric], ...]]:
    if topology is None:
        return [(None,) * d.rank for d in dists]
    # One metric tuple per distinct grid, however many candidates share it.
    return distribution_metrics_batch(topology, dists)


def evaluate_front(
    profile,
    dists: Sequence[Distribution],
    topology: Optional[Topology] = None,
) -> np.ndarray:
    """Exact cost of every candidate distribution, as one cost matrix.

    Returns an int64 ``(len(dists), 3)`` array with columns
    ``(hops, moved, broadcast)``; row ``i`` equals
    ``profile.evaluate(dists[i], topology)`` entry for entry (asserted
    by the differential harness on every scenario × topology family).
    An empty front prices to a ``(0, 3)`` matrix.
    """
    n = len(dists)
    out = np.zeros((n, 3), dtype=np.int64)
    if not n:
        return out
    for dist in dists:
        if dist.rank != profile.template_rank:
            raise ValueError(
                f"distribution rank {dist.rank} != template rank "
                f"{profile.template_rank}"
            )
    out[:, 0] = profile.fixed.hops
    out[:, 1] = profile.fixed.moved
    out[:, 2] = profile.broadcast
    tensors = compile_front(profile)
    if not tensors.groups:
        _FRONT_STATS[0] += n
        return out
    metrics = _front_metrics(topology, dists)
    params = [[_axis_dist_params(ax) for ax in d.axes] for d in dists]
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        idx = list(range(start, stop))
        for g in tensors.groups:
            hops = np.zeros(len(idx), dtype=np.int64)
            moved_any: Optional[np.ndarray] = None
            for j, t in enumerate(g.axes):
                mode, p, block, base = (
                    np.array([params[i][t][k] for i in idx], dtype=np.int64)
                    for k in range(4)
                )
                _check_contract(mode, p, block, base, g.lo[j], g.hi[j])
                ps = _proc_coords(g.src[j], mode, p, block, base)
                pd = _proc_coords(g.dst[j], mode, p, block, base)
                neq = ps != pd
                moved_any = neq if moved_any is None else (moved_any | neq)
                # Candidates in the chunk can price this axis with
                # different metrics (different grids / physical axes):
                # group rows by metric so each kernel runs once.
                rows_by_metric: dict = {}
                for row, i in enumerate(idx):
                    rows_by_metric.setdefault(metrics[i][t], []).append(row)
                for metric, rows in rows_by_metric.items():
                    h = _metric_hops(metric, ps[rows], pd[rows])
                    hops[rows] += np.sum(
                        g.weight[None] * h, axis=(1, 2), dtype=np.int64
                    )
            assert moved_any is not None
            out[start:stop, 0] += hops
            out[start:stop, 1] += np.sum(
                g.weight[None] * moved_any, axis=(1, 2), dtype=np.int64
            )
    _FRONT_STATS[0] += n
    return out


def front_costs(
    profile,
    dists: Sequence[Distribution],
    topology: Optional[Topology] = None,
) -> list:
    """:func:`evaluate_front` as :class:`~repro.distrib.CostVector`s."""
    from .costmodel import CostVector

    matrix = evaluate_front(profile, dists, topology)
    return [
        CostVector(int(h), int(m), int(b)) for h, m, b in matrix
    ]
