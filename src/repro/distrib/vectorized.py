"""Vectorized batch pricing of whole candidate enumerations.

A scalar evaluator (the tests' reference, ``tests/conftest.py``) walks
the move records in Python once per candidate — fine for a single plan,
dominant in a search that prices hundreds of (scheme, grid) candidates
per program.  This module is what the planner prices with: an *entire
enumeration front* in a handful of broadcasted NumPy ops:

* :func:`compile_front` compiles a profile's move records into its
  pricing front **once**, when the comm-profile pass builds the profile
  (:class:`~repro.distrib.costmodel.CommProfile` keeps it as ``front``,
  so every prefix — forked, pickled, cached — carries it).  The front is
  keyed by the axes each element actually moves on: an element that
  moves on no axis is dropped; per template axis an :class:`AxisFront`
  keeps the distinct ``(source cell, destination cell)`` pairs that
  differ on that axis, with two summed weights — every element carrying
  the pair (its hops) and those that move on this axis alone (its
  ``moved``); only elements that move on two or more axes keep
  deduplicated :class:`JointFront` rows, because ``moved`` counts such
  an element once however many of its axes change processor;
* :func:`axis_row_hops` maps one axis's cell pairs to processor
  coordinates for *all* candidate axis schemes at once, every grid's
  candidates joined in one call.  A candidate is a row ``(mode,
  nprocs, block, base)`` of an ``(n, 4)`` int64 array (the search's
  rows come straight from :func:`~repro.distrib.enumerate.axis_rows`,
  so no scheme record is built to be priced); the rows are sorted by
  metric once (stable), so each of the topology's vectorized metric
  kernels (:meth:`~repro.topology.AxisMetric.hops`) prices one
  contiguous slice of the ``(candidates, pairs)`` array; it returns the
  per-candidate hop and ``moved`` totals the per-axis argmin consumes;
* :func:`joint_moved` prices the joint rows, the one ``moved`` term no
  single axis can tell, for whole candidate distributions given as an
  ``(n, template_rank, 4)`` array of the same rows;
* :func:`evaluate_front` prices full candidate distributions with the
  same two kernels and returns an ``(n_candidates, 3)`` cost matrix
  with columns ``(hops, moved, broadcast)``.  It is the one place that
  takes scheme records: it turns them into rows once
  (:func:`_axis_dist_params`); the search builds a record only for a
  winner (:func:`_row_scheme`).

The suffix only reads the front: the ``distrib.front_tensors`` counter
records one miss per front compiled and one hit per pricing read (an
:func:`axis_row_hops` or :func:`evaluate_front` call).  The scalar
evaluators stay as the reference: every number produced here is an
exact integer equal to theirs and to the machine simulator (asserted per
scenario and per topology family in ``tests/test_differential.py``).
The ``distrib.front_price`` counter records how many candidates were
priced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cachestats import _cell
from ..machine.distribution import (
    SCHEMES,
    AxisDistribution,
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    Identity,
)
from ..topology import AxisMetric, Topology, distribution_metrics

# Candidates priced, in slot 0 (the cell's "hits"; slot 1 stays 0).
_FRONT_STATS = _cell("distrib.front_price")
# [pricing reads of a profile's front, fronts compiled].
_TENSOR_STATS = _cell("distrib.front_tensors")

# Scheme codes for the broadcast kernels.
_MODE_BLOCK = 0  # proc = (cell - base) // block
_MODE_WRAP = 1  # proc = ((cell - base) // block) % nprocs  (block=1: cyclic)
_MODE_IDENTITY = 2  # proc = cell


@dataclass(frozen=True)
class AxisFront:
    """The distinct moving cell pairs of one template axis.

    An axis's hop total is a function of the multiset of ``(source
    cell, destination cell)`` pairs on that axis alone, so the front
    keeps one entry per distinct pair with ``src != dst`` (an unmoved
    pair is zero hops under every scheme): ``src``/``dst`` are
    ``(pairs,)`` int64 arrays, ``weight`` sums the fold ``count`` of
    every element carrying the pair, and ``moved`` the part of it whose
    elements move on this axis and no other.  ``lo``/``hi`` bound *all*
    the axis's coordinates, unmoved ones included, for contract checks.
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    moved: np.ndarray
    lo: int
    hi: int


@dataclass(frozen=True)
class JointFront:
    """The elements that move on exactly the template axes ``axes``
    (two or more), one row per distinct tuple of cells.

    ``src[j]``/``dst[j]`` are the ``(rows,)`` cells on axis ``axes[j]``
    and ``weight`` sums the fold counts of the elements of each row.
    Such an element is moved once if its processor changes on any of
    those axes, which no single axis's pairs can tell.
    """

    axes: tuple[int, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class FrontTensors:
    """A profile's pricing front: everything :func:`axis_row_hops`,
    :func:`joint_moved` and :func:`evaluate_front` read, compiled once
    per profile."""

    axes: tuple[Optional[AxisFront], ...]
    joints: tuple[JointFront, ...]


def _fold(rows: list[np.ndarray], *weights: np.ndarray):
    """The distinct tuples ``rows`` hold column-wise, in lexicographic
    order, and each of ``weights`` summed over the columns folded into
    one."""
    if not rows[0].size:
        return rows, list(weights)
    lows = [int(row.min()) for row in rows]
    spans = [int(row.max()) - lo + 1 for row, lo in zip(rows, lows)]
    if math.prod(spans) <= np.iinfo(np.int64).max:
        # Each tuple as one mixed-radix integer: one sort of one key.
        # Records concatenate into long sorted runs, which a stable
        # (merge) sort takes in about half the time of a quicksort.
        key = rows[0] - lows[0]
        for row, lo, span in zip(rows[1:], lows[1:], spans[1:]):
            key = key * span + (row - lo)
        order = np.argsort(key, kind="stable")
        key = key[order]
        differs = key[1:] != key[:-1]
    else:
        order = np.lexsort(rows[::-1])
        differs = np.any([row[order][1:] != row[order][:-1] for row in rows], axis=0)
    starts = np.flatnonzero(np.concatenate(([True], differs)))
    return (
        [row[order[starts]] for row in rows],
        [np.add.reduceat(w[order], starts) for w in weights],
    )


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def compile_front(profile) -> FrontTensors:
    """Compile ``profile``'s move records into its pricing front.

    Records are grouped by active-axes signature first, so the
    per-element work is a few array passes per signature, not per
    record.  Counted as one ``distrib.front_tensors`` miss.
    """
    _TENSOR_STATS[1] += 1
    by_axes: dict[tuple[int, ...], list] = {}
    for r in profile.records:
        by_axes.setdefault(r.axes, []).append(r)
    # per template axis: the (lo, hi) of all its cells, and the
    # (src, dst, weight, moved) of its moving elements
    bounds: dict[int, tuple[int, int]] = {}
    pieces: dict[int, list] = {}
    # the axes an element moves on (two or more) -> [(src + dst rows, weight)]
    joints: dict[tuple[int, ...], list] = {}
    for sig, recs in by_axes.items():
        weight = np.repeat(
            np.array([r.count for r in recs], dtype=np.int64),
            [r.src[0].size for r in recs],
        )
        if not weight.size:
            continue
        src = [
            np.concatenate([r.src[j].ravel() for r in recs]).astype(np.int64, copy=False)
            for j in range(len(sig))
        ]
        dst = [
            np.concatenate([r.dst[j].ravel() for r in recs]).astype(np.int64, copy=False)
            for j in range(len(sig))
        ]
        moves = [s != d for s, d in zip(src, dst)]
        n_moved = np.sum(moves, axis=0)  # the axes each element moves on
        alone = np.where(n_moved == 1, weight, 0)
        for t, s, d, m in zip(sig, src, dst, moves):
            lo, hi = int(min(s.min(), d.min())), int(max(s.max(), d.max()))
            if t in bounds:
                lo, hi = min(lo, bounds[t][0]), max(hi, bounds[t][1])
            bounds[t] = (lo, hi)
            pieces.setdefault(t, []).append((s[m], d[m], weight[m], alone[m]))
        multi = np.flatnonzero(n_moved > 1)
        if multi.size:
            bits = sum(m[multi].astype(np.int64) << j for j, m in enumerate(moves))
            for code in np.unique(bits).tolist():
                on = [j for j in range(len(sig)) if code >> j & 1]
                cols = multi[bits == code]
                joints.setdefault(tuple(sig[j] for j in on), []).append(
                    ([src[j][cols] for j in on] + [dst[j][cols] for j in on], weight[cols])
                )
    axes: list[Optional[AxisFront]] = []
    for t in range(profile.template_rank):
        if t not in bounds:
            axes.append(None)
            continue
        s, d, w, m = map(_joined, zip(*pieces[t]))
        (s, d), (w, m) = _fold([s, d], w, m)
        axes.append(AxisFront(s, d, w, m, *bounds[t]))
    joint = []
    for sig, parts in sorted(joints.items()):
        rows, (w,) = _fold(
            [_joined(row) for row in zip(*(cells for cells, _ in parts))],
            _joined([w for _, w in parts]),
        )
        k = len(sig)
        joint.append(JointFront(sig, np.array(rows[:k]), np.array(rows[k:]), w))
    return FrontTensors(tuple(axes), tuple(joint))


def _front(profile) -> FrontTensors:
    """``profile``'s compiled front, read once: one ``distrib.front_tensors`` hit."""
    _TENSOR_STATS[0] += 1
    return profile.front


# -- scheme parameters as broadcast arrays ------------------------------------


def _axis_dist_params(ax) -> tuple[int, int, int, int]:
    """(mode, nprocs, block, base) of one axis distribution: a scheme of
    :data:`~repro.machine.distribution.SCHEMES` (``Cyclic.block`` is 1,
    so the wrap schemes share one kernel) or the identity."""
    if SCHEMES.get(getattr(ax, "scheme", None)) is type(ax):
        mode = _MODE_BLOCK if type(ax) is Block else _MODE_WRAP
        return (mode, ax.nprocs, ax.block, ax.base)
    if type(ax) is Identity:
        return (_MODE_IDENTITY, 1, 1, 0)
    raise TypeError(
        f"no front-pricing kernel for axis distribution "
        f"{type(ax).__name__}: the planner prices Block, Cyclic, "
        "BlockCyclic and Identity"
    )


def _row_scheme(mode: int, nprocs: int, block: int, base: int) -> AxisDistribution:
    """The scheme record of one enumeration row, the inverse of
    :func:`_axis_dist_params` on the rows
    :func:`~repro.distrib.enumerate.axis_rows` emits (a wrap row of
    block 1 is :class:`Cyclic`)."""
    if mode == _MODE_BLOCK:
        return Block(nprocs, block, base)
    if block == 1:
        return Cyclic(nprocs, base)
    return BlockCyclic(nprocs, block, base)


def _check_contract(
    rows: np.ndarray, lo: int, hi: int, cands: Optional[Sequence] = None
) -> None:
    """Mirror :func:`repro.machine.distribution.validate_cells` for the
    whole ``(n, 4)`` row batch: same violations, same ValueError, naming
    the offending scheme record (``cands[i]``, or the record row ``i``
    stands for when ``cands`` is None), which is built only to raise."""
    mode, p, block, base = rows.T
    owned = mode != _MODE_IDENTITY
    blocked = mode == _MODE_BLOCK
    below = owned & (lo < base)
    bad = below if below.any() else blocked & (hi >= base + p * block)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    name = _row_scheme(*map(int, rows[i])) if cands is None else cands[i]
    b = int(base[i])
    if below[i]:
        raise ValueError(f"{name!r}: cell {lo} below distribution base {b}")
    raise ValueError(
        f"{name!r}: cell {hi} outside covered range [{b}, {b + int(p[i] * block[i])})"
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
    kernel, and so does block: on the cells :func:`_check_contract`
    admits, its ``(cell - base) // block`` is already below ``nprocs``.
    Identity rows pass coordinates through unchanged.
    """
    shape = (-1,) + (1,) * cells.ndim
    q = (cells[None] - base.reshape(shape)) // block.reshape(shape)
    proc = np.mod(q, p.reshape(shape))
    identity = mode == _MODE_IDENTITY
    if identity.any():
        proc = np.where(identity.reshape(shape), cells[None], proc)
    return proc


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


Runs = Sequence[tuple[Optional[AxisMetric], int]]


def _axis_totals(
    af: AxisFront,
    rows: np.ndarray,
    runs: Optional[Runs],
    cands: Optional[Sequence] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(hops, moved)`` of one axis front under every ``(n, 4)`` scheme
    row.  ``runs`` holds ``(metric, count)`` pairs in row order: the
    first ``count`` rows price with the first metric, and so on (None:
    all on the open chain).  ``cands``, the records the rows came from,
    only names a contract violation."""
    _check_contract(rows, af.lo, af.hi, cands)
    # Rows can price this axis with different metrics (different grids /
    # physical axes): each metric's kernel runs once, on one contiguous
    # slice.  The runs already are such slices unless a metric recurs
    # after another; then one stable sort of the rows by metric makes them.
    runs = runs or ((None, len(rows)),)
    ids: dict = {}
    key = [ids.setdefault(m, len(ids)) for m, _ in runs]
    sizes = [0] * len(ids)
    for k, (_, n) in zip(key, runs):
        sizes[k] += n
    order = None
    if key != sorted(key):
        order = np.argsort(np.repeat(key, [n for _, n in runs]), kind="stable")
        rows = rows[order]
    params = rows.T
    ps = _proc_coords(af.src, *params)
    pd = _proc_coords(af.dst, *params)
    moved = (ps != pd) @ af.moved
    if len(ids) == 1:
        (metric,) = ids
        return _metric_hops(metric, ps, pd) @ af.weight, moved
    hops = np.empty(len(rows), dtype=np.int64)
    stop = 0
    for metric, n in zip(ids, sizes):
        start, stop = stop, stop + n
        hops[start:stop] = _metric_hops(metric, ps[start:stop], pd[start:stop]) @ af.weight
    if order is None:
        return hops, moved
    out_hops, out_moved = np.empty_like(hops), np.empty_like(moved)
    out_hops[order], out_moved[order] = hops, moved
    return out_hops, out_moved


def axis_row_hops(
    profile,
    axis: int,
    rows: np.ndarray,
    runs: Optional[Runs] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hop and ``moved`` totals of one template axis for a whole front of
    ``(n, 4)`` int64 ``(mode, nprocs, block, base)`` scheme rows (the
    rows of :func:`~repro.distrib.enumerate.axis_rows`), in one call
    however many grids it joins.  ``runs`` holds ``(axis metric,
    count)`` pairs covering the rows in order, one per joined grid
    (``None``: the open L1 chain for all).

    Returns two int64 ``(n,)`` arrays: ``hops[i]`` is the hops this axis
    contributes under row ``i`` (the scalar reference is
    ``tests/conftest.py::axis_hops``), and ``moved[i]`` counts the
    elements that move on this axis alone and change processor under it
    (the joint movers are :func:`joint_moved`'s)."""
    front = _front(profile).axes[axis]
    _FRONT_STATS[0] += len(rows)
    if front is None or not len(rows):
        return tuple(np.zeros((2, len(rows)), dtype=np.int64))
    return _axis_totals(front, rows, runs)


def joint_moved(profile, rows: np.ndarray) -> np.ndarray:
    """The elements moving on two or more template axes that change
    processor, per candidate: ``rows`` is an int64 ``(n, template_rank,
    4)`` array, one contract-checked ``(mode, nprocs, block, base)`` row
    per template axis of each candidate.  An int64 ``(n,)`` array, zero
    for a profile without joint rows."""
    out = np.zeros(len(rows), dtype=np.int64)
    joints = profile.front.joints
    if not joints or not len(rows):
        return out
    # (mode, nprocs, block, base) per axis, each an (n,) array.
    params = rows.transpose(1, 2, 0)
    for jf in joints:
        moved = np.zeros((len(rows), jf.weight.size), dtype=bool)
        for j, t in enumerate(jf.axes):
            moved |= _proc_coords(jf.src[j], *params[t]) != _proc_coords(
                jf.dst[j], *params[t]
            )
        out += moved @ jf.weight
    return out


def evaluate_front(
    profile,
    dists: Sequence[Distribution],
    topology: Optional[Topology] = None,
) -> np.ndarray:
    """Exact cost of every candidate distribution, as one cost matrix.

    Returns an int64 ``(len(dists), 3)`` array with columns
    ``(hops, moved, broadcast)``; row ``i`` equals the scalar reference
    ``evaluate(profile, dists[i], topology)`` (``tests/conftest.py``)
    entry for entry (asserted by the differential harness on every
    scenario × topology family).
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
    front = _front(profile)
    if all(af is None for af in front.axes):
        _FRONT_STATS[0] += n
        return out
    rows = np.array(
        [[_axis_dist_params(ax) for ax in d.axes] for d in dists], dtype=np.int64
    )
    metrics = (
        None if topology is None else [distribution_metrics(topology, d) for d in dists]
    )
    for t, af in enumerate(front.axes):
        if af is not None:
            runs = None if metrics is None else [(m[t], 1) for m in metrics]
            cands = [d.axes[t] for d in dists]
            hops, moved = _axis_totals(af, rows[:, t], runs, cands)
            out[:, 0] += hops
            out[:, 1] += moved
    out[:, 1] += joint_moved(profile, rows)
    _FRONT_STATS[0] += n
    return out
