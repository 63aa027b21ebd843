"""Finite caches inside the RNIC.

The RNIC caches connection state (QP contexts, congestion-control state)
and memory-translation entries (MTT/MPT) in on-chip SRAM (paper Fig. 1).
When the working set exceeds capacity the NIC fetches evicted entries from
host memory over PCIe — the mechanism behind the paper's Fig. 2(a)
scalability cliff.  We model both caches as plain LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["LruCache", "CacheStats"]


class CacheStats:
    """Hit/miss counters, exposed by every cache for experiment reports."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return "CacheStats(hits=%d, misses=%d, evictions=%d)" % (
            self.hits,
            self.misses,
            self.evictions,
        )


class LruCache:
    """Least-recently-used cache of opaque keys.

    :meth:`access` both queries and inserts: a miss immediately installs
    the key (the NIC fetches the state and keeps it), evicting the LRU
    entry if the cache is full.  This models the NIC's behaviour where the
    fetched context is cached for subsequent packets.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, None]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on hit, False on miss (with insert)."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.stats.evictions += 1
        entries[key] = None
        return False

    def clear(self) -> None:
        self._entries.clear()
