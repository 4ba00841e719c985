"""Iteration spaces: Fortran triplets and loop-nest products.

An edge of the ADG inside a k-deep loop nest carries a k-dimensional
iteration space whose elements are the LIV value vectors (Section 2.2.3).
The mobile-offset algorithms of Section 4 partition each axis of the
iteration space into subranges; this module provides the triplet algebra
(membership, cardinality, splitting, Cartesian products) those algorithms
rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .symbols import LIV


@dataclass(frozen=True)
class Triplet:
    """A Fortran iteration triplet ``lo : hi : step``.

    The value set is ``{lo, lo+step, ...}`` up to and including ``hi``
    when reachable.  ``step`` may be negative; the triplet is empty when
    the direction of ``step`` moves away from ``hi``.
    """

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError("triplet step must be nonzero")

    def __len__(self) -> int:
        if self.step > 0:
            return max(0, (self.hi - self.lo) // self.step + 1) if self.hi >= self.lo else 0
        return max(0, (self.lo - self.hi) // (-self.step) + 1) if self.hi <= self.lo else 0

    @property
    def count(self) -> int:
        return len(self)

    def is_empty(self) -> bool:
        return len(self) == 0

    def __iter__(self) -> Iterator[int]:
        n = len(self)
        v = self.lo
        for _ in range(n):
            yield v
            v += self.step

    def __contains__(self, x: int) -> bool:
        if self.step > 0:
            return self.lo <= x <= self.hi and (x - self.lo) % self.step == 0
        return self.hi <= x <= self.lo and (self.lo - x) % (-self.step) == 0

    @property
    def last(self) -> int:
        """The last value actually taken (normalized hi)."""
        if self.is_empty():
            raise ValueError("empty triplet has no last element")
        return self.lo + (len(self) - 1) * self.step

    def normalized(self) -> "Triplet":
        """Clamp ``hi`` to the last value actually taken."""
        if self.is_empty():
            return self
        return Triplet(self.lo, self.last, self.step)

    def value_at(self, t: int) -> int:
        """The t-th value (0-based)."""
        if not 0 <= t < len(self):
            raise IndexError(f"triplet index {t} out of range")
        return self.lo + t * self.step

    def split(self, m: int) -> list["Triplet"]:
        """Partition into ``m`` consecutive, nearly equal subranges.

        The subranges cover exactly the same value set, in order.  When the
        triplet has fewer than ``m`` values, returns one singleton per
        value (possibly fewer than ``m`` triplets).
        """
        if m <= 0:
            raise ValueError("m must be positive")
        n = len(self)
        if n == 0:
            return []
        m = min(m, n)
        out: list[Triplet] = []
        base, extra = divmod(n, m)
        start = 0
        for j in range(m):
            size = base + (1 if j < extra else 0)
            lo = self.value_at(start)
            hi = self.value_at(start + size - 1)
            out.append(Triplet(lo, hi, self.step))
            start += size
        return out

    def split_at(self, index: int) -> tuple["Triplet", "Triplet"]:
        """Split into ``[0, index)`` and ``[index, n)`` by ordinal position.

        Either side may be empty (returned as a normalized empty triplet).
        """
        n = len(self)
        if not 0 <= index <= n:
            raise IndexError("split index out of range")
        if index == 0:
            return (Triplet(self.lo, self.lo - self.step, self.step), self.normalized())
        if index == n:
            return (self.normalized(), Triplet(self.last + self.step, self.last, self.step))
        left = Triplet(self.lo, self.value_at(index - 1), self.step)
        right = Triplet(self.value_at(index), self.last, self.step)
        return left, right

    def __repr__(self) -> str:
        if self.step == 1:
            return f"{self.lo}:{self.hi}"
        return f"{self.lo}:{self.hi}:{self.step}"


@dataclass(frozen=True)
class IterationSpace:
    """A Cartesian product of triplets, one per LIV, outermost first.

    The degenerate 0-dimensional space (no loops) has exactly one point:
    the empty vector.  This matches the paper's convention that an edge
    outside all loops carries data exactly once.
    """

    livs: tuple[LIV, ...] = ()
    triplets: tuple[Triplet, ...] = ()

    def __post_init__(self) -> None:
        if len(self.livs) != len(self.triplets):
            raise ValueError("livs and triplets must have equal length")

    # -- hashing (memo keys hash a space on every lookup) --------------------

    def __hash__(self) -> int:
        # Cached on the instance, outside the compared fields, and never
        # pickled: LIV names hash per process.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.livs, self.triplets))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"livs": self.livs, "triplets": self.triplets}

    @classmethod
    def scalar(cls) -> "IterationSpace":
        return cls((), ())

    @classmethod
    def single(cls, liv: LIV, lo: int, hi: int, step: int = 1) -> "IterationSpace":
        return cls((liv,), (Triplet(lo, hi, step),))

    @property
    def depth(self) -> int:
        return len(self.livs)

    @property
    def count(self) -> int:
        n = 1
        for t in self.triplets:
            n *= len(t)
        return n

    def is_empty(self) -> bool:
        return any(t.is_empty() for t in self.triplets)

    def points(self) -> Iterator[dict[LIV, int]]:
        """Iterate all LIV environments in lexicographic nest order.

        ``count`` environments, i.e. exponential in the depth.  The
        comm-profile compiler and the machine simulator both walk it, so
        callers that depend on only some LIVs should walk
        :meth:`projected` instead.
        """
        for combo in product(*(iter(t) for t in self.triplets)):
            yield dict(zip(self.livs, combo))

    def extended(self, liv: LIV, t: Triplet) -> "IterationSpace":
        """Add an inner loop dimension."""
        if liv in self.livs:
            raise ValueError(f"LIV {liv.name} already present")
        return IterationSpace(self.livs + (liv,), self.triplets + (t,))

    def projected(self, livs: Iterable[LIV]) -> "IterationSpace":
        """Keep only the dimensions whose LIV is in ``livs``, in nest order.

        LIVs the space does not have are ignored.  Every point of the
        projection stands for ``count // projected.count`` points of a
        non-empty space, and walking :meth:`points` visits the projected
        tuples in the order ``projected(livs).points()`` yields them.
        """
        keep = set(livs)
        kept = [(v, t) for v, t in zip(self.livs, self.triplets) if v in keep]
        return IterationSpace(
            tuple(v for v, _ in kept), tuple(t for _, t in kept)
        )

    def restricted(self, liv: LIV, t: Triplet) -> "IterationSpace":
        """Replace the triplet of one LIV (subrange restriction)."""
        idx = self.livs.index(liv)
        trips = list(self.triplets)
        trips[idx] = t
        return IterationSpace(self.livs, tuple(trips))

    def grid_partition(self, m: int) -> list["IterationSpace"]:
        """Partition each axis into ``m`` subranges; Cartesian product.

        Section 4.4: an m-way split per LIV yields at most ``m**k``
        subspaces for a k-deep nest.  For the scalar space, returns
        ``[self]``.
        """
        if self.depth == 0:
            return [self]
        per_axis = [t.split(m) for t in self.triplets]
        out = []
        for combo in product(*per_axis):
            out.append(IterationSpace(self.livs, tuple(combo)))
        return out

    def __repr__(self) -> str:
        if self.depth == 0:
            return "IterationSpace()"
        inner = ", ".join(
            f"{v.name}={t!r}" for v, t in zip(self.livs, self.triplets)
        )
        return f"IterationSpace[{inner}]"
