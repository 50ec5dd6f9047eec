"""Thread-safe, size-bounded LRU cache.

The serving path hits this from every worker of a
:class:`~repro.api.service.ServiceEndpoint` pool, so all operations
take an internal lock and are O(1).  Eviction is strict LRU: a ``get``
refreshes recency, a ``put`` over capacity evicts the coldest entry.

Statistics are cumulative for the cache's lifetime and cheap to read;
:meth:`LRUCache.stats` returns an immutable snapshot so callers can
diff two snapshots around a workload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: distinguishes "key absent" from a cached ``None`` value
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Immutable counters snapshot for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    max_entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, 0.0 for an untouched cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_info(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A locked ``OrderedDict`` with an entry bound and hit accounting.

    ``max_entries <= 0`` builds a disabled cache: every lookup misses,
    every store is dropped.  That lets callers keep one unconditional
    code path and turn caching off purely through configuration.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """Snapshot of the cached keys, coldest first."""
        with self._lock:
            return list(self._entries)

    def items(self) -> list[tuple[Hashable, Any]]:
        """Snapshot of the cached entries, coldest first; no recency change."""
        with self._lock:
            return list(self._entries.items())

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Value for ``key`` (refreshing recency), else ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the coldest entry if full."""
        if not self.enabled:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; statistics survive."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                max_entries=self.max_entries,
            )
