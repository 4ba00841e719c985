"""Pluggable interconnect models: how far apart are two processors?

The paper prices every data movement with the L1 grid metric — the
machine is implicitly an infinite mesh.  Real targets differ: rings and
tori wrap, hypercubes route by Hamming distance, clustered machines pay
far more for inter-node links than for intra-node ones.  This module
makes the machine shape a first-class, pluggable value:

* an :class:`AxisMetric` is a vectorized distance kernel on the
  processor coordinates of **one** logical grid axis;
* a :class:`Topology` describes a whole machine — it manufactures the
  per-axis metrics for any logical processor-grid factorization, plus
  machine-level metadata (shape, bisection bandwidth, a parseable spec).

Every concrete topology here is *separable*: its distance decomposes
into a sum of per-axis metrics (a product of rings is a torus, a
product of hypercubes is a hypercube, …).  Separability is what lets
the distribution planner keep pricing axes independently — the per-axis
dynamic program in :mod:`repro.distrib.search` stays exact for every
topology, not just the grid.

All metrics satisfy the metric axioms (identity, symmetry, triangle
inequality) on processor coordinates; the property tests in
``tests/test_topology.py`` check them on random cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np


#: Set bits of every byte value: ``_BYTE_BITS[v] == bin(v).count("1")``.
_BYTE_BITS = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a nonnegative int64 array.

    Portable across numpy versions (``np.bitwise_count`` is 2.x-only):
    one gather from the 256-entry byte table :data:`_BYTE_BITS` per
    byte the largest value spans, so a hypercube axis of up to 2**8
    processors (coordinates are already reduced mod the axis size)
    costs one table read per element.
    """
    x = np.asarray(x, dtype=np.int64)
    out = _BYTE_BITS[x & 0xFF]
    top = int(x.max()) >> 8 if x.size else 0
    shift = 8
    while top:
        out += _BYTE_BITS[(x >> shift) & 0xFF]
        top >>= 8
        shift += 8
    return out


def _gray(x: np.ndarray) -> np.ndarray:
    """Reflected binary Gray code of nonnegative integers."""
    return x ^ (x >> 1)


# ---------------------------------------------------------------------------
# Per-axis metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisMetric:
    """Distance kernel on the processor coordinates of one grid axis.

    Frozen and hashable: front pricing groups candidates by their
    metric (:func:`repro.distrib.vectorized.evaluate_front`), so every
    parameter that changes the distance must be a dataclass field.
    :meth:`hops` is an elementwise array kernel that broadcasts.
    """

    def hops(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def distance(self, a: int, b: int) -> int:
        """Scalar convenience wrapper around :meth:`hops`."""
        return int(self.hops(np.asarray([a]), np.asarray([b]))[0])


@dataclass(frozen=True)
class LinearAxis(AxisMetric):
    """An open chain of processors: ``|a - b|`` — the paper's metric."""

    def hops(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(a) - np.asarray(b))

    def distance(self, a, b):
        # Overridden to stay exact on Fractions (the alignment phase
        # measures template cells, whose offsets can be rational).
        return abs(a - b)


@dataclass(frozen=True)
class RingAxis(AxisMetric):
    """``p`` processors in a cycle: hop the short way around.

    Coordinates are folded onto the ring mod ``p``, so the metric is
    total on the identity machine's unbounded cells as well.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"RingAxis needs p >= 1, got {self.p}")

    def hops(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = np.mod(np.asarray(a) - np.asarray(b), self.p)
        return np.minimum(d, self.p - d)


@dataclass(frozen=True)
class HammingAxis(AxisMetric):
    """A ``p = 2**k`` hypercube axis: Hamming distance on Gray-coded
    coordinates.

    Gray coding makes consecutive coordinates adjacent (1 hop), so
    nearest-neighbour shift traffic costs exactly what it does on a
    chain, while long jumps can be dramatically cheaper.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.p & (self.p - 1):
            raise ValueError(
                f"HammingAxis needs a power-of-two processor count, got {self.p}"
            )

    def hops(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Mod a power of two is a mask, and the Gray code is linear over
        # XOR (``gray(a) ^ gray(b) == gray(a ^ b)``): one XOR, one mask
        # and one Gray code give the bits the two coordinates differ in.
        return _popcount(_gray((np.asarray(a) ^ np.asarray(b)) & (self.p - 1)))


@dataclass(frozen=True)
class TwoLevelAxis(AxisMetric):
    """Hierarchical axis: nodes of ``node`` processors, cheap inside,
    ``inter_cost``-weighted ``outer`` metric between nodes.

    ``d(a, b) = inter_cost * outer(a // node, b // node)
              + inner(a mod node, b mod node)``

    Both summands are pullbacks of metrics along total functions, so the
    sum is again a metric (the inner term separates coordinates that
    share a node).
    """

    node: int
    inter_cost: int
    outer: AxisMetric
    inner: AxisMetric

    def __post_init__(self) -> None:
        if self.node < 1:
            raise ValueError(f"TwoLevelAxis needs node >= 1, got {self.node}")
        if self.inter_cost < 1:
            raise ValueError(
                f"TwoLevelAxis needs inter_cost >= 1, got {self.inter_cost}"
            )

    def hops(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        between = self.outer.hops(a // self.node, b // self.node)
        within = self.inner.hops(np.mod(a, self.node), np.mod(b, self.node))
        return self.inter_cost * between + within


# ---------------------------------------------------------------------------
# Whole-machine topologies
# ---------------------------------------------------------------------------


def _parse_dims(text: str, what: str) -> tuple[int, ...]:
    parts = text.split("x") if text else []
    if not parts:
        raise ValueError(f"{what}: missing shape (expected e.g. '4x4')")
    dims = []
    for part in parts:
        try:
            n = int(part)
        except ValueError:
            raise ValueError(
                f"{what}: bad axis extent {part!r} in {text!r}"
            ) from None
        if n < 1:
            raise ValueError(f"{what}: axis extents must be >= 1, got {n}")
        dims.append(n)
    return tuple(dims)


def factorizations(n: int, rank: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of ``n`` into ``rank`` axis counts,
    in deterministic (lexicographic) order.

    The one grid enumerator in the package: the distribution planner's
    candidate generation (:mod:`repro.distrib.enumerate`) and the
    topology defaults below share it, so the planner's candidate space
    and the machines' own grid choices can never diverge.
    """
    if n < 1:
        raise ValueError("nprocs must be >= 1")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank == 1:
        return [(n,)]
    # The divisors in increasing order, by trial division up to sqrt(n).
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = small + [n // d for d in reversed(small) if d * d != n]
    return [
        (p, *rest) for p in divisors for rest in factorizations(n // p, rank - 1)
    ]


def most_balanced(grids: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The most nearly-cubic grid shape (minimal max/min spread)."""
    if not grids:
        raise ValueError("need at least one grid shape")
    return min(grids, key=lambda g: (max(g) - min(g), g))


@dataclass(frozen=True)
class Topology:
    """A machine interconnect: shape plus per-axis distance pricing.

    ``shape`` is the physical per-axis processor extents; the empty
    shape is the paper's conceptually unbounded identity machine (only
    :class:`GridTopology` admits it).  Logical processor grids chosen by
    the distribution planner need not equal ``shape`` — a topology
    prices *any* logical axis of ``p`` processors via
    :meth:`axis_metric`, with logical axis ``t`` folded onto physical
    axis ``min(t, rank - 1)``.
    """

    shape: tuple[int, ...]

    kind: ClassVar[str] = "abstract"

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.shape):
            raise ValueError(f"{self.kind}: axis extents must be >= 1")

    # -- per-axis pricing --------------------------------------------------

    def axis_metric(self, p: int | None = None, axis: int = 0) -> AxisMetric:
        """The metric for a logical axis of ``p`` processors.

        ``p=None`` means the physical extent of ``axis`` (the identity
        machine's one-processor-per-cell regime prices hops on the full
        physical axis).
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def supports_axis(self, p: int, axis: int = 0) -> bool:
        """Whether ``p`` logical processors fold onto physical ``axis``.

        Takes the same axis index as :meth:`axis_metric`, so the two
        can never disagree about which grids are realizable.
        """
        return p >= 1

    def supports_grid(self, grid: Sequence[int]) -> bool:
        return all(
            self.supports_axis(p, self._physical_axis(t, len(grid)))
            for t, p in enumerate(grid)
        )

    def metrics(self, grid: Sequence[int | None]) -> tuple[AxisMetric, ...]:
        """One metric per logical grid axis (``None`` = physical extent)."""
        return tuple(
            self.axis_metric(p, self._physical_axis(t, len(grid)))
            for t, p in enumerate(grid)
        )

    def _physical_axis(self, t: int, rank: int) -> int:
        if not self.shape:
            return t
        return min(t, len(self.shape) - 1)

    def _grid_for_rank(self, rank: int) -> tuple[int | None, ...]:
        """A default logical grid of the given rank.

        The physical shape when ranks agree; otherwise the most
        balanced supported factorization of the machine size.
        """
        if not self.shape:
            return (None,) * rank
        if rank == len(self.shape):
            return self.shape
        candidates = [
            f
            for f in factorizations(self.nprocs, rank)
            if self.supports_grid(f)
        ]
        if not candidates:
            raise ValueError(
                f"{self.spec()}: no rank-{rank} processor grid is realizable"
            )
        return most_balanced(candidates)

    # -- whole-machine interface -------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def nprocs(self) -> int:
        n = 1
        for p in self.shape:
            n *= p
        return n

    def distance(self, cell_a: Sequence, cell_b: Sequence):
        """Hop distance between two cells of the machine's own grid."""
        if len(cell_a) != len(cell_b):
            raise ValueError(
                f"{self.kind} distance needs equal-rank points: "
                f"got rank {len(cell_a)} vs rank {len(cell_b)}"
            )
        ms = self.metrics(self._grid_for_rank(len(cell_a)))
        total = 0
        for m, a, b in zip(ms, cell_a, cell_b):
            total = total + m.distance(a, b)
        return total

    def bisection_bandwidth(self) -> int:
        """Links cut by the worst-case even bisection (0 if unbounded)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def spec(self) -> str:
        """The parseable spec string; ``parse_topology(spec())`` round-trips."""
        raise NotImplementedError  # pragma: no cover - abstract

    def describe(self) -> str:
        if not self.shape:
            return f"{self.kind} topology, unbounded (the identity machine)"
        shape = "x".join(str(p) for p in self.shape)
        return (
            f"{self.kind} topology, shape {shape} "
            f"({self.nprocs} processors, bisection "
            f"{self.bisection_bandwidth()})"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec()}>"


@dataclass(frozen=True)
class GridTopology(Topology):
    """An open mesh — the paper's L1 machine, and the default.

    The empty shape is the conceptually infinite template grid (the
    identity machine of the alignment phases); every per-axis metric is
    plain ``|a - b|``, bit-for-bit the pre-topology behaviour.
    """

    kind: ClassVar[str] = "grid"

    def axis_metric(self, p: int | None = None, axis: int = 0) -> AxisMetric:
        return LinearAxis()

    def bisection_bandwidth(self) -> int:
        if not self.shape:
            return 0
        longest = max(self.shape)
        return self.nprocs // longest if longest > 1 else 0

    def spec(self) -> str:
        if not self.shape:
            return "grid"
        return "grid:" + "x".join(str(p) for p in self.shape)


@dataclass(frozen=True)
class TorusTopology(Topology):
    """A mesh with wraparound links: every axis is a ring."""

    kind: ClassVar[str] = "torus"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.shape:
            raise ValueError("torus needs a finite shape")

    def axis_metric(self, p: int | None = None, axis: int = 0) -> AxisMetric:
        if p is None:
            p = self.shape[axis]
        return RingAxis(p) if p > 1 else LinearAxis()

    def bisection_bandwidth(self) -> int:
        longest = max(self.shape)
        return 2 * self.nprocs // longest if longest > 1 else 0

    def spec(self) -> str:
        return "torus:" + "x".join(str(p) for p in self.shape)


@dataclass(frozen=True)
class RingTopology(TorusTopology):
    """A single cycle of processors — the rank-1 torus."""

    kind: ClassVar[str] = "ring"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.shape) != 1:
            raise ValueError(
                f"ring is one-dimensional, got shape "
                f"{'x'.join(str(p) for p in self.shape)}"
            )

    def spec(self) -> str:
        return f"ring:{self.shape[0]}"


@dataclass(frozen=True)
class HypercubeTopology(Topology):
    """A ``2**k``-processor hypercube, Hamming distance on Gray-coded
    coordinates.

    A product of sub-hypercubes is a hypercube, so any power-of-two
    factorization of the machine is realizable — the planner may carve
    ``hypercube:16`` into logical grids (16,), (2, 8), (4, 4), …
    """

    kind: ClassVar[str] = "hypercube"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.shape:
            raise ValueError("hypercube needs a processor count")
        n = self.nprocs
        if n & (n - 1):
            raise ValueError(
                f"hypercube needs a power-of-two processor count, got {n}"
            )

    def axis_metric(self, p: int | None = None, axis: int = 0) -> AxisMetric:
        if p is None:
            p = self.shape[axis]
        return HammingAxis(p) if p > 1 else LinearAxis()

    def supports_axis(self, p: int, axis: int = 0) -> bool:
        return p >= 1 and not (p & (p - 1))

    def bisection_bandwidth(self) -> int:
        return self.nprocs // 2 if self.nprocs > 1 else 0

    def spec(self) -> str:
        return "hypercube:" + "x".join(str(p) for p in self.shape)


@dataclass(frozen=True)
class HierarchicalTopology(Topology):
    """Clustered machine: an ``outer`` fabric of nodes, each node an
    ``inner`` fabric of processors, inter-node hops ``inter_cost`` times
    dearer than intra-node ones.

    ``outer`` and ``inner`` must agree on rank; the composite shape is
    their elementwise product.  Either level may itself be hierarchical,
    so cluster → node → core machines compose naturally (the tests
    exercise two levels deep).
    """

    outer: Topology
    inner: Topology
    inter_cost: int = 4

    kind: ClassVar[str] = "hier"

    def __post_init__(self) -> None:
        if self.outer.rank != self.inner.rank or not self.outer.rank:
            raise ValueError(
                f"hier needs same-rank finite levels, got outer rank "
                f"{self.outer.rank} vs inner rank {self.inner.rank}"
            )
        want = tuple(
            o * i for o, i in zip(self.outer.shape, self.inner.shape)
        )
        if self.shape != want:
            raise ValueError("hier shape must be outer*inner per axis")
        if self.inter_cost < 1:
            raise ValueError(
                f"hier inter-node cost must be >= 1, got {self.inter_cost}"
            )
        super().__post_init__()

    @classmethod
    def of(
        cls, outer: Topology, inner: Topology, inter_cost: int = 4
    ) -> "HierarchicalTopology":
        shape = tuple(o * i for o, i in zip(outer.shape, inner.shape))
        return cls(shape, outer, inner, inter_cost)

    def axis_metric(self, p: int | None = None, axis: int = 0) -> AxisMetric:
        if p is None:
            p = self.shape[axis]
        node = self.inner.shape[axis]
        outer_p = -(-p // node)  # nodes spanned by p logical processors
        return TwoLevelAxis(
            node=node,
            inter_cost=self.inter_cost,
            outer=self.outer.axis_metric(outer_p, axis),
            inner=self.inner.axis_metric(node, axis),
        )

    def supports_axis(self, p: int, axis: int = 0) -> bool:
        # Mirrors axis_metric: the inner level always prices its own
        # full node extent (realizable by construction), so only the
        # node count this axis spans constrains the outer fabric.
        return p >= 1 and self.outer.supports_axis(
            -(-p // self.inner.shape[axis]), axis
        )

    def bisection_bandwidth(self) -> int:
        # The inter-node fabric is the bottleneck: the worst even cut
        # severs outer links only (inter_cost weights latency, not the
        # number of links cut).
        return self.outer.bisection_bandwidth()

    def spec(self) -> str:
        return (
            f"hier:({self.outer.spec()})/({self.inner.spec()})"
            f"@{self.inter_cost}"
        )


def distribution_metrics(topology: Topology, dist) -> tuple[AxisMetric, ...]:
    """Per-axis metrics matching a :class:`~repro.machine.Distribution`.

    Axis schemes that own a processor count (block, cyclic, …) are
    priced on that many processors; schemes without one (the identity
    machine's one-processor-per-cell axes) fall back to the physical
    axis extent.  Duck-typed on ``dist.axes`` so this module stays a
    leaf — :mod:`repro.machine` imports us, never the reverse.
    """
    return topology.metrics(
        tuple(getattr(ax, "nprocs", None) for ax in dist.axes)
    )
