"""Partitioned in-memory key-value store (MICA-like substrate, §8.5.2).

FLockTX and the FaSST comparison both run over this store, mirroring the
paper's use of MICA "without caching key-value pairs".  Each partition
lives on one server; records carry a version and a lock owner for
optimistic concurrency control.

A partition stores its records column-wise, in three plain dicts keyed
by key: ``values``, ``versions`` and ``owners`` (the lock holder, for
locked keys only).  No per-key object exists.  With int keys, int or
``None`` values and int owners, none of these dicts is ever tracked by
CPython's cyclic collector, so a population of hundreds of thousands of
records costs the collector nothing.  :meth:`KvPartition.get` hands out
a :class:`KvEntry` snapshot built from the columns.

For FLockTX's validation phase the store *publishes each record's
version word in a registered memory region*: the word packs
``version << 1 | locked`` at a stable address, so coordinators validate
read-sets with one-sided RDMA reads exactly as the paper's Fig. 13 shows
(``fl_read`` of the address returned during execution).  Addresses are
handed out in first-publication order, ``WORD_BYTES`` bytes apart.
"""

from __future__ import annotations

from typing import Any, Dict, KeysView, List, Optional

__all__ = ["KvEntry", "KvPartition", "partition_of", "replicas_of"]

#: CPU cost charged by handlers per store operation (ns).
GET_NS = 120.0
PUT_NS = 160.0
LOCK_NS = 60.0

#: The version word of a freshly loaded record: version 1, unlocked.
_LOADED_WORD = 1 << 1

#: Bytes between consecutive published version words.
WORD_BYTES = 8

#: Copies of each partition: a primary and two backups (§8.5.2).
N_REPLICAS = 3


class KvEntry:
    """A snapshot of one key's record: value, OCC version, lock owner.

    :meth:`KvPartition.get` builds a fresh snapshot from the partition's
    columns on every call.  Mutating a snapshot does not write through to
    the partition.
    """

    __slots__ = ("value", "version", "lock_owner")

    def __init__(self, value: Any = None, version: int = 0,
                 lock_owner: Optional[int] = None):
        self.value = value
        self.version = version
        self.lock_owner = lock_owner

    def __eq__(self, other) -> bool:
        if not isinstance(other, KvEntry):
            return NotImplemented
        return ((self.value, self.version, self.lock_owner)
                == (other.value, other.version, other.lock_owner))

    def __repr__(self) -> str:
        return "KvEntry(value=%r, version=%r, lock_owner=%r)" % (
            self.value, self.version, self.lock_owner)

    @property
    def locked(self) -> bool:
        return self.lock_owner is not None

    @property
    def version_word(self) -> int:
        """The packed word published for one-sided validation."""
        return (self.version << 1) | (1 if self.locked else 0)


class KvPartition:
    """One server's partition, optionally exposing version words in a
    registered region for one-sided validation."""

    def __init__(self, partition_id: int, region=None):
        self.partition_id = partition_id
        self.values: Dict[Any, Any] = {}
        self.versions: Dict[Any, int] = {}
        #: Lock holder per key; only locked keys appear.
        self.owners: Dict[Any, int] = {}
        self.region = region
        self._addrs: Dict[Any, int] = {}
        self._next_off = 0
        # Statistics for experiment reports.
        self.gets = 0
        self.puts = 0
        self.lock_failures = 0

    def keys(self) -> KeysView:
        """Every key with a record, in insertion order."""
        return self.values.keys()

    # -- address publication ---------------------------------------------

    def addr_of(self, key: Any) -> int:
        """Stable address of the key's version word (for fl_read)."""
        addr = self._addrs.get(key)
        if addr is None:
            if self.region is None:
                raise RuntimeError("partition has no registered region")
            self._assign_addrs((key,))
            addr = self._addrs[key]
        return addr

    def _assign_addrs(self, keys) -> None:
        """Give each of ``keys`` (none yet addressed) the next free word."""
        step = WORD_BYTES
        start = self._next_off
        end = start + step * len(keys)
        if end > self.region.length:
            raise RuntimeError("version region exhausted")
        base = self.region.addr
        self._addrs.update(zip(keys, range(base + start, base + end, step)))
        self._next_off = end

    def _publish(self, key: Any) -> None:
        if self.region is not None:
            self.region.words[self.addr_of(key)] = self.version_of(key)

    # -- store operations ----------------------------------------------------

    def load(self, items) -> None:
        """Bulk-populate (bootstrap): every key of ``items`` (a mapping or
        ``(key, value)`` pairs) gets its value at version 1, unlocked.
        New keys take version-word addresses in iteration order."""
        items = dict(items)
        self.values.update(items)
        self.versions.update(dict.fromkeys(items, 1))
        if self.owners:
            for key in items:
                self.owners.pop(key, None)
        if self.region is not None:
            addrs = self._addrs
            self._assign_addrs([key for key in items if key not in addrs])
            self.region.words.update(
                dict.fromkeys([addrs[key] for key in items], _LOADED_WORD))

    def get(self, key: Any) -> Optional[KvEntry]:
        """A snapshot of the key's record, or None if it has none."""
        self.gets += 1
        version = self.versions.get(key)
        if version is None:
            return None
        return KvEntry(self.values[key], version, self.owners.get(key))

    def _create(self, key: Any) -> None:
        """Give a missing key an empty version-0 record."""
        if key not in self.versions:
            self.values[key] = None
            self.versions[key] = 0

    def try_lock(self, key: Any, owner: int) -> bool:
        """Lock for OCC write intent; fails if already locked by another."""
        self._create(key)
        holder = self.owners.get(key)
        if holder is not None and holder != owner:
            self.lock_failures += 1
            return False
        self.owners[key] = owner
        self._publish(key)
        return True

    def unlock(self, key: Any, owner: int) -> bool:
        if key not in self.versions or self.owners.get(key) != owner:
            return False
        self.owners.pop(key, None)
        self._publish(key)
        return True

    def commit_update(self, key: Any, value: Any, owner: int) -> int:
        """Apply a validated write and release the lock; bumps version."""
        if key not in self.versions or self.owners.get(key) != owner:
            raise RuntimeError("commit of unlocked key %r" % (key,))
        self.values[key] = value
        version = self.versions[key] + 1
        self.versions[key] = version
        self.owners.pop(key, None)
        self.puts += 1
        self._publish(key)
        return version

    def apply_replica_update(self, key: Any, value: Any, version: int) -> None:
        """Replica-side update (logging phase): installs value+version."""
        self._create(key)
        if version >= self.versions[key]:
            self.values[key] = value
            self.versions[key] = version
        self._publish(key)

    def version_of(self, key: Any) -> int:
        """The key's packed version word; 0 if it has no record."""
        version = self.versions.get(key)
        if version is None:
            return 0
        return (version << 1) | (1 if key in self.owners else 0)


def partition_of(key: int, n_partitions: int) -> int:
    """Key → primary partition (stable hash)."""
    return (key * 2654435761 & 0xFFFFFFFF) % n_partitions


def replicas_of(partition_id: int, n_servers: int) -> List[int]:
    """Primary + backup server ids (3-way chain as in §8.5.2)."""
    n = min(N_REPLICAS, n_servers)
    return [(partition_id + i) % n_servers for i in range(n)]
