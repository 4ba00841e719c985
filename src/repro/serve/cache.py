"""Persistent, fingerprint-keyed plan cache for the serving daemon.

The cache maps *content-fingerprint key chains* — the short digests
:class:`~repro.passes.PlanContext` computes for structurally
transparent artifacts — to pickled planning payloads, under two
namespaces:

* ``prefix``: ``(program fp, align-options fp)`` → the pickled
  machine-independent :class:`~repro.passes.PlanContext` prefix;
* ``plan``: ``(program fp, align-options fp, machine fp)`` → the full
  serve payload (plan report fields, directive, cost).

Correctness properties, each load-bearing for a cache that outlives its
process:

**Content-addressed keys only.**  Every key part is a content
fingerprint, a non-empty string; a planner input that has none
(``None``) can be neither stored nor probed — :meth:`PlanCache.put`
and :meth:`PlanCache.get` raise ``ValueError``.

**Schema versioning.**  Every entry is stamped with
:data:`SCHEMA_VERSION` (and echoes its own namespace + key chain).  A
load that finds a different schema, a foreign key (filename-hash
collision), or an unreadable pickle deletes the file and reports a
miss — never a wrong payload.

**Atomic writes.**  Entries are written via temp-file +
:func:`os.replace` (:mod:`repro._io`), so a daemon killed mid-store
leaves either no entry or a complete one, never a truncated pickle.
Stray temp files from killed writers are swept at warm start.

**Hits are served from memory.**  Every entry stored or loaded is kept
decoded, so a hit returns the very object stored, with a directory or
without; a file warm start indexed is read and checked by its first
``get`` only.

**Bounded LRU.**  At most ``max_entries`` entries, both namespaces
together, in memory and on disk; stores past the bound evict the
least-recently-used entry (file and all).  Warm start recovers the
recency order from file mtimes, which the eviction order only needs
approximately.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .. import cachestats
from .._io import atomic_write_bytes

#: Bump on any change to what an entry pickles
#: (``tests/golden/cache_layout.json`` pins the layout to it); every
#: persisted entry is stamped with it, and a mismatch is deleted at load
#: and reported as a miss.
#: 2: prefix ADGs carry statement provenance (``ADGNode.stmt``).
#: 3: a prefix's ``AxisFront``s are 1-D distinct cell pairs.
#: 4: profiles carry their front; options and machines lose constant fields.
SCHEMA_VERSION = 4

#: Sentinel distinguishing "no entry" from a stored ``None`` payload.
MISS = object()

_NAMESPACES = ("prefix", "plan")


@dataclass
class CacheStats:
    """Counters for one :class:`PlanCache` instance (process-local)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidated: int = 0  # schema/pickle/key-mismatch entries deleted

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
        }


def _validate_key(namespace: str, key: Sequence[str]) -> tuple[str, ...]:
    if namespace not in _NAMESPACES:
        raise ValueError(
            f"unknown cache namespace {namespace!r}; expected one of "
            f"{_NAMESPACES}"
        )
    parts = tuple(key)
    if not parts:
        raise ValueError("cache key chain must not be empty")
    for part in parts:
        if not isinstance(part, str) or not part:
            raise ValueError(f"cache key part {part!r} is not a fingerprint")
    return parts


class PlanCache:
    """In-memory LRU cache of planning payloads, persisted to a directory.

    Every instance keeps its entries decoded in memory and serves hits
    from there.  ``root=None`` persists nothing (the in-process
    :class:`~repro.serve.service.PlanService` default).  With a ``root``
    directory, every store is also written to
    ``root/<namespace>/<digest>.pkl``, and a fresh instance warm-starts
    from whatever a previous process left behind.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: int = 1024,
        name: str = "serve.cache",
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = os.path.abspath(root) if root is not None else None
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        self._lock = threading.Lock()
        # digest -> entry dict, or -> path for a file warm start indexed
        # that no ``get`` has read yet; least-recently-used first.
        self._index: OrderedDict[str, Any] = OrderedDict()
        if self.root is not None:
            self._warm_start()

    # -- layout ------------------------------------------------------------

    @staticmethod
    def _digest(namespace: str, key: tuple[str, ...]) -> str:
        blob = "|".join((namespace,) + key).encode()
        return hashlib.sha256(blob).hexdigest()[:32]

    def _path(self, namespace: str, digest: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, namespace, f"{digest}.pkl")

    def _warm_start(self) -> None:
        """Index whatever entries a previous process persisted.

        Files are indexed lazily (validated on first ``get``), ordered
        oldest-mtime-first so eviction approximates the prior LRU order.
        Temp files abandoned by killed writers are removed.
        """
        found: list[tuple[float, str, str]] = []
        for ns in _NAMESPACES:
            d = os.path.join(self.root, ns)
            os.makedirs(d, exist_ok=True)
            for fname in os.listdir(d):
                path = os.path.join(d, fname)
                if fname.startswith(".tmp-"):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                if not fname.endswith(".pkl"):
                    continue
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    continue
                found.append((mtime, fname[: -len(".pkl")], path))
        found.sort()
        for _, digest, path in found:
            self._index[digest] = path
        # Respect the bound even across restarts with a shrunk config.
        while len(self._index) > self.max_entries:
            self._evict_one()

    # -- core API ----------------------------------------------------------

    def get(self, namespace: str, key: Iterable[str]) -> Any:
        """The stored payload, or :data:`MISS`.

        Raises ``ValueError`` for a key part that is not a fingerprint —
        a key that can't be stored can't be probed either.
        """
        parts = _validate_key(namespace, tuple(key))
        digest = self._digest(namespace, parts)
        with self._lock:
            entry = self._index.get(digest)
            if entry is None:
                return self._miss(namespace)
            if isinstance(entry, str):
                entry = self._load(entry)
                if entry is None or not self._entry_matches(
                    entry, namespace, parts
                ):
                    # Corrupt, foreign-schema, or hash-collided file:
                    # drop it so the next probe is a clean miss too.
                    self._invalidate(digest)
                    return self._miss(namespace)
                self._index[digest] = entry
            self._index.move_to_end(digest)
            self.stats.hits += 1
            cachestats.record_hit(f"{self.name}.{namespace}")
            return entry["payload"]

    def put(self, namespace: str, key: Iterable[str], payload: Any) -> None:
        """Store ``payload`` under the fingerprint chain, atomically.

        Refuses a key part that is not a fingerprint (``ValueError``);
        evicts LRU entries past ``max_entries``.
        """
        parts = _validate_key(namespace, tuple(key))
        digest = self._digest(namespace, parts)
        entry = {
            "schema": SCHEMA_VERSION,
            "namespace": namespace,
            "key": parts,
            "payload": payload,
        }
        with self._lock:
            if self.root is not None:
                atomic_write_bytes(
                    self._path(namespace, digest),
                    pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
                )
            self._index[digest] = entry
            self._index.move_to_end(digest)
            self.stats.stores += 1
            while len(self._index) > self.max_entries:
                self._evict_one()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, namespace_key: tuple[str, Iterable[str]]) -> bool:
        namespace, key = namespace_key
        parts = _validate_key(namespace, tuple(key))
        with self._lock:
            return self._digest(namespace, parts) in self._index

    def clear(self) -> None:
        """Drop every entry (files included in disk mode)."""
        with self._lock:
            for digest, target in self._index.items():
                self._unlink(digest, target)
            self._index.clear()

    # -- internals ---------------------------------------------------------

    def _miss(self, namespace: str) -> Any:
        self.stats.misses += 1
        cachestats.record_miss(f"{self.name}.{namespace}")
        return MISS

    @staticmethod
    def _entry_matches(
        entry: dict, namespace: str, parts: tuple[str, ...]
    ) -> bool:
        return (
            entry.get("schema") == SCHEMA_VERSION
            and entry.get("namespace") == namespace
            and tuple(entry.get("key", ())) == parts
            and "payload" in entry
        )

    @staticmethod
    def _load(path: str) -> Optional[dict]:
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
        except Exception:  # noqa: BLE001 - any unreadable entry is a miss
            return None
        return entry if isinstance(entry, dict) else None

    def _unlink(self, digest: str, target: Any) -> None:
        """Delete an index entry's file: its path, or where it was stored."""
        if self.root is not None:
            if not isinstance(target, str):
                target = self._path(target["namespace"], digest)
            with contextlib.suppress(OSError):
                os.unlink(target)

    def _invalidate(self, digest: str) -> None:
        self._unlink(digest, self._index.pop(digest))
        self.stats.invalidated += 1

    def _evict_one(self) -> None:
        self._unlink(*self._index.popitem(last=False))
        self.stats.evictions += 1
