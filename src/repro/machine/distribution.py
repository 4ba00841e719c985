"""Distributions: template cells -> processors.

The paper's second phase (which it explicitly defers) maps template
cells onto processors; the simulator implements the three standard HPF
distributions per axis — block, cyclic, block-cyclic — plus the identity
distribution (one processor per cell) under which processor-hop counts
coincide exactly with the paper's grid-metric cost, which is what the
equation-1 validation experiment uses.

The three scheme classes are also the distribution planner's per-axis
choice: each carries its name (``scheme``), its HPF spelling
(``render()``) and ``nprocs`` / ``block`` / ``base``, and :data:`SCHEMES`
is the one name → class table the planner, the front-pricing kernel,
:func:`uniform` and the CLI read.

All mapping functions are vectorized over numpy arrays of cell
coordinates, and all of them enforce one shared contract via
:func:`validate_cells`: a distribution owns the template cells in
``[base, base + coverage)`` (``coverage`` is infinite for the wrapping
schemes and for the identity machine) and mapping any cell outside that
range is an error, never a silent clip or wrap of data the distribution
does not own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..topology import AxisMetric


def validate_cells(
    cells: np.ndarray,
    base: int,
    coverage: int | None,
    kind: str,
) -> np.ndarray:
    """Enforce the ``AxisDistribution.map`` contract; return cells - base.

    Every axis distribution covers the half-open cell range
    ``[base, base + coverage)`` (``coverage=None`` means unbounded above:
    cyclic schemes wrap forever).  Cells below ``base`` — in particular
    negative cells under the default base 0 — or at/past the coverage
    limit are rejected with :class:`ValueError` so that Block, Cyclic and
    BlockCyclic all fail identically instead of Block clipping and
    Cyclic wrapping out-of-contract data onto arbitrary processors.
    """
    arr = np.asarray(cells)
    rel = arr - base
    if arr.size:
        lo = int(rel.min())
        if lo < 0:
            raise ValueError(
                f"{kind}: cell {base + lo} below distribution base {base}"
            )
        if coverage is not None:
            hi = int(rel.max())
            if hi >= coverage:
                raise ValueError(
                    f"{kind}: cell {base + hi} outside covered range "
                    f"[{base}, {base + coverage})"
                )
    return rel


class AxisDistribution:
    """Maps one template axis's cell coordinates to processor coords."""

    def map(self, cells: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def processor_coordinate_distance(
        self, a: np.ndarray, b: np.ndarray, metric: AxisMetric | None = None
    ) -> np.ndarray:
        """Hop distance between the owners of cells ``a`` and ``b``.

        ``metric`` is the interconnect's per-axis distance kernel
        (:mod:`repro.topology`); ``None`` is the paper's open chain,
        ``|proc(a) - proc(b)|``.
        """
        pa, pb = self.map(a), self.map(b)
        if metric is None:
            return np.abs(pa - pb)
        return metric.hops(pa, pb)


def covering_block(extent: int, nprocs: int) -> int:
    """The block size whose blocks exactly cover an axis window."""
    return max(1, -(-extent // nprocs))  # ceil division


@dataclass(frozen=True)
class Block(AxisDistribution):
    """Contiguous blocks of ``block`` cells per processor, from ``base``.

    Covers exactly ``nprocs * block`` cells; anything outside is a
    contract violation (the old behaviour silently clipped such cells
    onto the first/last processor, undercounting hops).
    """

    scheme = "block"

    nprocs: int
    block: int
    base: int = 0

    def __post_init__(self) -> None:
        if self.nprocs <= 0 or self.block <= 0:
            raise ValueError("Block needs nprocs >= 1 and block >= 1")

    @classmethod
    def over(cls, nprocs: int, lo: int, hi: int) -> "Block":
        """The block distribution covering cells ``[lo, hi]``."""
        return cls(nprocs, covering_block(hi - lo + 1, nprocs), lo)

    @property
    def coverage(self) -> int:
        return self.nprocs * self.block

    def map(self, cells: np.ndarray) -> np.ndarray:
        rel = validate_cells(cells, self.base, self.coverage, "Block")
        return rel // self.block

    def render(self) -> str:
        return f"BLOCK({self.block})"


@dataclass(frozen=True)
class Cyclic(AxisDistribution):
    """Cell c lives on processor ``(c - base) mod nprocs``: block-cyclic
    with blocks of one cell."""

    scheme = "cyclic"
    block = 1

    nprocs: int
    base: int = 0

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError("Cyclic needs nprocs >= 1")

    @classmethod
    def over(cls, nprocs: int, lo: int, hi: int) -> "Cyclic":
        """The cyclic distribution based at ``lo``."""
        return cls(nprocs, lo)

    def map(self, cells: np.ndarray) -> np.ndarray:
        rel = validate_cells(cells, self.base, None, "Cyclic")
        return np.mod(rel, self.nprocs)

    def render(self) -> str:
        return "CYCLIC"


@dataclass(frozen=True)
class BlockCyclic(AxisDistribution):
    """Blocks of ``block`` cells dealt cyclically to processors."""

    scheme = "block-cyclic"

    nprocs: int
    block: int
    base: int = 0

    def __post_init__(self) -> None:
        if self.nprocs <= 0 or self.block <= 0:
            raise ValueError("BlockCyclic needs nprocs >= 1 and block >= 1")

    @classmethod
    def over(cls, nprocs: int, lo: int, hi: int) -> "BlockCyclic":
        """Blocks of 4 cells dealt from ``lo``."""
        return cls(nprocs, 4, lo)

    def map(self, cells: np.ndarray) -> np.ndarray:
        rel = validate_cells(cells, self.base, None, "BlockCyclic")
        return np.mod(rel // self.block, self.nprocs)

    def render(self) -> str:
        return f"CYCLIC({self.block})"


#: The HPF schemes by name: the planner's per-axis choices, and what
#: :func:`uniform` (``measure_plan``, the CLI's ``--measure``) builds.
SCHEMES = {cls.scheme: cls for cls in (Block, Cyclic, BlockCyclic)}


@dataclass(frozen=True)
class Identity(AxisDistribution):
    """One processor per template cell: the cost-model-exact machine.

    This is the paper's analytic machine over the conceptually infinite
    template, so any integer cell (negative included) is in contract.
    """

    def map(self, cells: np.ndarray) -> np.ndarray:
        return np.asarray(cells)


@dataclass
class Distribution:
    """A full template distribution: one AxisDistribution per axis."""

    axes: tuple[AxisDistribution, ...]

    @property
    def rank(self) -> int:
        return len(self.axes)

    @classmethod
    def identity(cls, rank: int) -> "Distribution":
        return cls(tuple(Identity() for _ in range(rank)))

    def map_cells(self, cells: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-axis processor coordinates for arrays of cell coordinates."""
        return [ax.map(np.asarray(c)) for ax, c in zip(self.axes, cells)]

    def moved_mask(
        self, src: Sequence[np.ndarray], dst: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Boolean mask of elements whose processor changes."""
        moved = None
        for ax, s, d in zip(self.axes, src, dst):
            m = ax.map(np.asarray(s)) != ax.map(np.asarray(d))
            moved = m if moved is None else (moved | m)
        assert moved is not None
        return moved

    def hop_distance(
        self,
        src: Sequence[np.ndarray],
        dst: Sequence[np.ndarray],
        metrics: Sequence[AxisMetric] | None = None,
    ) -> np.ndarray:
        """Per-element processor-hop distance, summed over axes.

        ``metrics`` (one per axis, from
        :func:`repro.topology.distribution_metrics`) prices each axis
        with the machine's interconnect; ``None`` is the paper's L1
        grid metric.
        """
        total = None
        for i, (ax, s, d) in enumerate(zip(self.axes, src, dst)):
            h = ax.processor_coordinate_distance(
                np.asarray(s),
                np.asarray(d),
                None if metrics is None else metrics[i],
            )
            total = h if total is None else total + h
        assert total is not None
        return total


def uniform(
    scheme: str, window: Sequence[tuple[int, int]], grid: Sequence[int]
) -> Distribution:
    """One :data:`SCHEMES` scheme on every axis: axis ``t`` on
    ``grid[t]`` processors over the cells ``window[t] = (lo, hi)``, based
    at ``lo`` (block covers the window; block-cyclic deals blocks of 4)."""
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown distribution scheme {scheme!r}; choose from {sorted(SCHEMES)}"
        )
    if len(grid) != len(window):
        raise ValueError(
            f"a rank-{len(grid)} processor grid for a rank-{len(window)} template"
        )
    cls = SCHEMES[scheme]
    return Distribution(
        tuple(cls.over(p, lo, hi) for (lo, hi), p in zip(window, grid))
    )
