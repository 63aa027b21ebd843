"""KV store substrate: OCC entries, version words, partitioning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kvstore import (
    KvEntry,
    KvPartition,
    partition_of,
    replicas_of,
)
from repro.hw import HostMemory


def make_partition():
    mem = HostMemory()
    region = mem.register(1 << 16)
    return KvPartition(0, region=region), region


class TestKvEntry:
    """The published version word packs the entry's version and lock."""

    def test_version_word_packing(self):
        part, _region = make_partition()
        part.apply_replica_update(1, "v", 5)
        assert part.version_of(1) == 10  # 5 << 1, unlocked
        assert part.try_lock(1, owner=7)
        assert part.version_of(1) == 11  # lock bit set
        assert part.get(1).lock_owner == 7

    @given(st.integers(min_value=1, max_value=2 ** 40),
           st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_word_roundtrips(self, version, locked):
        part, _region = make_partition()
        part.apply_replica_update(1, "v", version)
        if locked:
            part.try_lock(1, owner=1)
        entry = part.get(1)
        word = part.version_of(1)
        assert word >> 1 == entry.version == version
        assert bool(word & 1) == locked == (entry.lock_owner is not None)


class TestPartition:
    def test_load_and_get(self):
        part, region = make_partition()
        part.load([(1, "a"), (2, "b")])
        assert part.get(1).value == "a"
        assert part.get(1).version == 1
        assert part.get(99) is None

    def test_lock_conflict(self):
        part, _region = make_partition()
        part.load([(1, "a")])
        assert part.try_lock(1, owner=100)
        assert not part.try_lock(1, owner=200)
        assert part.try_lock(1, owner=100)  # re-entrant for same owner
        assert part.lock_failures == 1

    def test_unlock_requires_owner(self):
        part, _region = make_partition()
        part.load([(1, "a")])
        part.try_lock(1, owner=100)
        assert not part.unlock(1, owner=200)
        assert part.unlock(1, owner=100)
        assert part.get(1).lock_owner is None

    def test_commit_bumps_version_and_unlocks(self):
        part, region = make_partition()
        part.load([(1, "a")])
        part.try_lock(1, owner=5)
        version = part.commit_update(1, "b", owner=5)
        assert version == 2
        entry = part.get(1)
        assert entry.value == "b" and entry.lock_owner is None

    def test_commit_without_lock_rejected(self):
        part, _region = make_partition()
        part.load([(1, "a")])
        with pytest.raises(RuntimeError):
            part.commit_update(1, "b", owner=5)

    def test_published_word_tracks_state(self):
        part, region = make_partition()
        part.load([(1, "a")])
        addr = part.addr_of(1)
        assert region.words[addr] == (1 << 1)
        part.try_lock(1, owner=9)
        assert region.words[addr] == (1 << 1) | 1
        part.commit_update(1, "b", owner=9)
        assert region.words[addr] == (2 << 1)

    def test_addresses_stable_and_distinct(self):
        part, _region = make_partition()
        part.load([(1, "a"), (2, "b")])
        assert part.addr_of(1) == part.addr_of(1)
        assert part.addr_of(1) != part.addr_of(2)

    def test_replica_update_monotone(self):
        part, _region = make_partition()
        part.apply_replica_update(1, "v3", 3)
        part.apply_replica_update(1, "v2", 2)  # stale, ignored
        entry = part.get(1)
        assert entry.value == "v3" and entry.version == 3

    def test_lock_creates_missing_entry(self):
        part, _region = make_partition()
        assert part.try_lock(42, owner=1)
        assert part.get(42) == KvEntry(None, 0, 1)

    def test_replica_update_creates_missing_entry(self):
        part, _region = make_partition()
        part.apply_replica_update(42, "v", 0)
        assert part.get(42) == KvEntry("v", 0, None)

    def test_version_of_missing_key(self):
        part, _region = make_partition()
        assert part.version_of(123) == 0

    def test_snapshot_does_not_write_through(self):
        part, region = make_partition()
        part.load([(1, "a")])
        entry = part.get(1)
        entry.value = "z"
        entry.version = 9
        entry.lock_owner = 4
        assert part.get(1) == KvEntry("a", 1, None)
        assert part.version_of(1) == 2
        assert region.words[part.addr_of(1)] == 2

    def test_keys_in_insertion_order(self):
        part, _region = make_partition()
        part.load({5: "a", 2: "b"})
        part.try_lock(9, owner=1)
        part.apply_replica_update(3, "c", 1)
        assert list(part.keys()) == [5, 2, 9, 3]

    def test_reload_resets_record_keeps_address(self):
        part, region = make_partition()
        part.load([(1, "a")])
        addr = part.addr_of(1)
        part.try_lock(1, owner=7)
        part.load([(1, "b"), (2, "c")])
        assert part.get(1) == KvEntry("b", 1, None)
        assert part.addr_of(1) == addr
        assert part.addr_of(2) == addr + 8
        assert region.words[addr] == 2

    def test_region_exhaustion(self):
        mem = HostMemory()
        part = KvPartition(0, region=mem.register(16))
        part.load([(1, 0), (2, 0)])
        with pytest.raises(RuntimeError):
            part.addr_of(3)

    def test_no_region_rejects_addr(self):
        part = KvPartition(0)
        with pytest.raises(RuntimeError):
            part.addr_of(1)


class TestPlacement:
    def test_partition_of_stable(self):
        assert partition_of(12345, 3) == partition_of(12345, 3)

    def test_partition_of_in_range(self):
        for key in range(1000):
            assert 0 <= partition_of(key, 3) < 3

    def test_partition_spread_roughly_even(self):
        from collections import Counter
        counts = Counter(partition_of(k, 3) for k in range(30000))
        for p in range(3):
            assert 8000 < counts[p] < 12000

    def test_replicas_of_chain(self):
        assert replicas_of(0, 3) == [0, 1, 2]
        assert replicas_of(2, 3) == [2, 0, 1]

    def test_replicas_capped_by_cluster(self):
        assert replicas_of(0, 2) == [0, 1]
        assert replicas_of(0, 1) == [0]

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_partition_always_valid(self, key, n):
        assert 0 <= partition_of(key, n) < n
