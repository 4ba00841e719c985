"""Process-wide cache instrumentation for the memoized hot kernels.

The batched planning engine (:mod:`repro.batch`) hammers two kernels —
edge-cost moment sums (``align.moments``) and move-record compilation
(``distrib.move_records``) — hard enough that memoization pays.
Every cache in the package registers here under a dotted name so the
batch report can surface hit rates, and so tests can assert the caches
stay bounded; plain counters (``distrib.front_price``,
``distrib.front_tensors``, the serve cache's namespaces) share the
registry.

The registry is per-process: worker processes of a
:class:`~concurrent.futures.ProcessPoolExecutor` each accumulate their
own counters, which the batch engine snapshots around each planning
task and merges back into the aggregate report.
"""

from __future__ import annotations

from typing import Hashable, Mapping

# name -> [hits, misses]; the lists are shared with the caches so the
# hot path is a bare integer increment, not a registry lookup.
_STATS: dict[str, list[int]] = {}
_CACHES: list["BoundedCache"] = []

_MISS = object()


def _cell(name: str) -> list[int]:
    return _STATS.setdefault(name, [0, 0])


def record_hit(name: str, n: int = 1) -> None:
    _cell(name)[0] += n


def record_miss(name: str, n: int = 1) -> None:
    _cell(name)[1] += n


def snapshot() -> dict[str, tuple[int, int]]:
    """Current ``{name: (hits, misses)}`` for every registered counter."""
    return {name: (c[0], c[1]) for name, c in _STATS.items()}


def delta(
    before: Mapping[str, tuple[int, int]],
    after: Mapping[str, tuple[int, int]] | None = None,
) -> dict[str, tuple[int, int]]:
    """Counter increments between two snapshots (``after`` defaults to now).

    Counters only ever grow, so this is the per-name difference over the
    union of the two snapshots' names; names that did not move are left
    out.
    """
    after = snapshot() if after is None else after
    out: dict[str, tuple[int, int]] = {}
    for name in before.keys() | after.keys():
        h, m = after.get(name, (0, 0))
        h0, m0 = before.get(name, (0, 0))
        if h != h0 or m != m0:
            out[name] = (h - h0, m - m0)
    return out


def merge(
    into: dict[str, tuple[int, int]], other: Mapping[str, tuple[int, int]]
) -> dict[str, tuple[int, int]]:
    for name, (h, m) in other.items():
        h0, m0 = into.get(name, (0, 0))
        into[name] = (h0 + h, m0 + m)
    return into


def clear_caches() -> None:
    """Empty every registered :class:`BoundedCache` (counters kept)."""
    for cache in _CACHES:
        cache.clear()


class BoundedCache:
    """A small memo table with shared hit/miss counters and a size bound.

    Eviction is oldest-first (dict insertion order), which is enough to
    keep the working set of a batch run resident while guaranteeing the
    cache cannot grow without bound across runs — the leak-audit test
    checks exactly that.
    """

    __slots__ = ("name", "maxsize", "_data", "_stats")

    def __init__(self, name: str, maxsize: int = 4096) -> None:
        self.name = name
        self.maxsize = maxsize
        self._data: dict[Hashable, object] = {}
        self._stats = _cell(name)
        _CACHES.append(self)

    def lookup(self, key: Hashable) -> object:
        """Return the cached value or the module :data:`_MISS` sentinel."""
        val = self._data.get(key, _MISS)
        if val is _MISS:
            self._stats[1] += 1
        else:
            self._stats[0] += 1
        return val

    def store(self, key: Hashable, value: object) -> object:
        data = self._data
        if len(data) >= self.maxsize:
            # Drop the oldest ~25% in one pass; cheaper than per-insert
            # LRU bookkeeping and the kernels re-memoize quickly.
            for old in list(data.keys())[: max(1, self.maxsize // 4)]:
                del data[old]
        data[key] = value
        return value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


MISS = _MISS


def hit_rate(counters: Mapping[str, tuple[int, int]]) -> dict[str, float]:
    """Hit fraction per counter name (0.0 when a counter never fired)."""
    out = {}
    for name, (h, m) in counters.items():
        total = h + m
        out[name] = h / total if total else 0.0
    return out
