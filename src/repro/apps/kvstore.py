"""Partitioned in-memory key-value store (MICA-like substrate, §8.5.2).

FLockTX and the FaSST comparison both run over this store, mirroring the
paper's use of MICA "without caching key-value pairs".  Each partition
lives on one server; records carry a version and a lock owner for
optimistic concurrency control.

A partition's loaded records live in its *population*: an increasing
``array('q')`` of keys, each loaded at value 0 and version 1. The three
copies of a partition share one population, since it is identical across
them. Each copy stores only what it changed, its *overlay*, column-wise,
in three plain dicts keyed by key: ``values`` and ``versions`` hold the
records written since the population was loaded (and keys created or
loaded later), and ``owners`` the lock holder of locked keys. No per-key
object exists. With int keys, int or ``None`` values and int owners,
none of these dicts is ever tracked by CPython's cyclic collector, and
the population is one flat array, so a population of hundreds of
thousands of records costs the collector nothing.
:meth:`KvPartition.get` hands out a :class:`KvEntry` snapshot built from
the overlay, or from the population when the overlay misses.

For FLockTX's validation phase the store *publishes each record's
version word in a registered memory region*: the word packs
``version << 1 | locked`` at a stable address, so coordinators validate
read-sets with one-sided RDMA reads exactly as the paper's Fig. 13 shows
(``fl_read`` of the address returned during execution). A population
key's word sits ``WORD_BYTES`` times its rank past the region's start;
other keys take the words after the population in first-publication
order. A word is published when its record changes or when
:meth:`KvPartition.addr_of` first hands out its address, so every word a
coordinator can read is current.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["KvEntry", "KvPartition", "partition_of", "replicas_of"]

#: CPU cost charged by handlers per store operation (ns).
GET_NS = 120.0
PUT_NS = 160.0
LOCK_NS = 60.0

#: A population record as loaded: value 0 at version 1, unlocked.
_LOADED_VALUE = 0
_LOADED_VERSION = 1
_LOADED_WORD = _LOADED_VERSION << 1

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


class KvPartition:
    """One server's partition, optionally exposing version words in a
    registered region for one-sided validation.

    ``population`` is an increasing ``array('q')`` of keys loaded at
    value 0, version 1; the copies of one partition share it.
    """

    def __init__(self, partition_id: int, region=None,
                 population: Optional[array] = None):
        self.partition_id = partition_id
        self.population = array("q") if population is None else population
        #: Records written since the population was loaded.
        self.values: Dict[Any, Any] = {}
        self.versions: Dict[Any, int] = {}
        #: Lock holder per key; only locked keys appear.
        self.owners: Dict[Any, int] = {}
        self.region = region
        #: Version-word addresses of keys outside the population.
        self._addrs: Dict[Any, int] = {}
        self._next_off = WORD_BYTES * len(self.population)
        if region is not None and self._next_off > region.length:
            raise RuntimeError("version region exhausted")
        # Statistics for experiment reports.
        self.gets = 0
        self.puts = 0
        self.lock_failures = 0

    def keys(self) -> Iterator:
        """Every key with a record: the population, then the other keys
        in insertion order."""
        yield from self.population
        for key in self.versions:
            if self._rank(key) is None:
                yield key

    def _rank(self, key: Any) -> Optional[int]:
        """The key's index in the population, or None if it is not there."""
        population = self.population
        rank = bisect_left(population, key)
        if rank < len(population) and population[rank] == key:
            return rank
        return None

    def _has(self, key: Any) -> bool:
        return key in self.versions or self._rank(key) is not None

    # -- address publication ---------------------------------------------

    def addr_of(self, key: Any) -> int:
        """Stable address of the key's version word (for fl_read)."""
        addr = self._addrs.get(key)
        if addr is not None:
            return addr
        if self.region is None:
            raise RuntimeError("partition has no registered region")
        rank = self._rank(key)
        if rank is None:
            self._assign_addrs((key,))
            return self._addrs[key]
        addr = self.region.addr + WORD_BYTES * rank
        # Every change publishes its word, so an unpublished word belongs
        # to a record that still holds its loaded state.
        self.region.words.setdefault(addr, _LOADED_WORD)
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

    def _word(self, key: Any) -> int:
        """The packed version word of ``key``, which has a record."""
        return ((self.versions.get(key, _LOADED_VERSION) << 1)
                | (1 if key in self.owners else 0))

    def _publish(self, key: Any) -> None:
        if self.region is not None:
            self.region.words[self.addr_of(key)] = self._word(key)

    # -- store operations ----------------------------------------------------

    def load(self, items) -> None:
        """Bulk-populate (bootstrap): every key of ``items`` (a mapping or
        ``(key, value)`` pairs) gets its value at version 1, unlocked.
        New keys outside the population take version-word addresses in
        iteration order."""
        items = dict(items)
        self.values.update(items)
        self.versions.update(dict.fromkeys(items, _LOADED_VERSION))
        if self.owners:
            for key in items:
                self.owners.pop(key, None)
        if self.region is not None:
            addrs = self._addrs
            self._assign_addrs([key for key in items if key not in addrs
                                and self._rank(key) is None])
            self.region.words.update(
                dict.fromkeys([self.addr_of(key) for key in items],
                              _LOADED_WORD))

    def get(self, key: Any) -> Optional[KvEntry]:
        """A snapshot of the key's record, or None if it has none."""
        self.gets += 1
        if not self._has(key):
            return None
        return KvEntry(self.values.get(key, _LOADED_VALUE),
                       self.versions.get(key, _LOADED_VERSION),
                       self.owners.get(key))

    def _create(self, key: Any) -> None:
        """Give a missing key an empty version-0 record."""
        if not self._has(key):
            self.values[key] = None
            self.versions[key] = 0

    def _owned_by(self, key: Any, owner: int) -> bool:
        """Whether ``key`` has a record whose lock holder is ``owner``."""
        holder = self.owners.get(key)
        # A locked key always has a record.
        return holder == owner and (holder is not None or self._has(key))

    def try_lock(self, key: Any, owner: int) -> bool:
        """Lock for OCC write intent; fails if already locked by another."""
        holder = self.owners.get(key)
        if holder is None:
            self._create(key)
        elif holder != owner:
            self.lock_failures += 1
            return False
        self.owners[key] = owner
        self._publish(key)
        return True

    def unlock(self, key: Any, owner: int) -> bool:
        if not self._owned_by(key, owner):
            return False
        self.owners.pop(key, None)
        self._publish(key)
        return True

    def commit_update(self, key: Any, value: Any, owner: int) -> int:
        """Apply a validated write and release the lock; bumps version."""
        if not self._owned_by(key, owner):
            raise RuntimeError("commit of unlocked key %r" % (key,))
        self.values[key] = value
        version = self.versions.get(key, _LOADED_VERSION) + 1
        self.versions[key] = version
        self.owners.pop(key, None)
        self.puts += 1
        self._publish(key)
        return version

    def apply_replica_update(self, key: Any, value: Any, version: int) -> None:
        """Replica-side update (logging phase): installs value+version."""
        self._create(key)
        if version >= self.versions.get(key, _LOADED_VERSION):
            self.values[key] = value
            self.versions[key] = version
        self._publish(key)

    def version_of(self, key: Any) -> int:
        """The key's packed version word; 0 if it has no record."""
        return self._word(key) if self._has(key) else 0


def partition_of(key: int, n_partitions: int) -> int:
    """Key → primary partition (stable hash)."""
    return (key * 2654435761 & 0xFFFFFFFF) % n_partitions


def replicas_of(partition_id: int, n_servers: int) -> List[int]:
    """Primary + backup server ids (3-way chain as in §8.5.2)."""
    n = min(N_REPLICAS, n_servers)
    return [(partition_id + i) % n_servers for i in range(n)]
