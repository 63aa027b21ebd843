"""Hardware substrate: caches, PCIe, memory regions, CPU meters, RNIC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetConfig, NicConfig
from repro.hw import (
    AccessError,
    CoreMeter,
    CpuMeter,
    HostMemory,
    LruCache,
    MemoryRegion,
    PcieLink,
    Rnic,
)
from repro.sim import Simulator

from conftest import run_gen


class TestLruCache:
    def test_hit_after_insert(self):
        cache = LruCache(2)
        assert not cache.access("a")  # miss installs
        assert cache.access("a")

    def test_eviction_is_lru(self):
        cache = LruCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # a most recent
        cache.access("c")  # evicts b
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_stats(self):
        cache = LruCache(1)
        cache.access("a")
        cache.access("a")
        cache.access("b")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.evictions == 1
        assert cache.stats.miss_ratio == pytest.approx(2 / 3)

    def test_capacity_bound(self):
        cache = LruCache(3)
        for i in range(100):
            cache.access(i)
        assert len(cache) == 3

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=0, max_value=20), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_size_never_exceeds_capacity(self, capacity, accesses):
        cache = LruCache(capacity)
        for key in accesses:
            cache.access(key)
            assert len(cache) <= capacity

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_working_set_within_capacity_never_misses_twice(self, capacity):
        cache = LruCache(capacity)
        keys = list(range(capacity))
        for key in keys:
            cache.access(key)
        cache.stats.reset()
        for _round in range(5):
            for key in keys:
                assert cache.access(key)
        assert cache.stats.misses == 0


class TestPcie:
    def test_read_takes_latency(self, sim):
        link = PcieLink(sim, read_latency_ns=700, slots=4)

        def proc():
            yield from link.read()
            return sim.now

        assert run_gen(sim, proc()) == 700
        assert link.reads_issued == 1

    def test_slots_bound_concurrency(self, sim):
        link = PcieLink(sim, read_latency_ns=100, slots=2)
        finish = []

        def proc():
            yield from link.read()
            finish.append(sim.now)

        for _ in range(4):
            sim.spawn(proc())
        sim.run()
        # Two waves of two concurrent reads.
        assert finish == [100, 100, 200, 200]

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            PcieLink(sim, read_latency_ns=-1, slots=1)


class TestMemory:
    def test_register_and_lookup(self):
        mem = HostMemory()
        region = mem.register(4096)
        assert mem.lookup(region.rkey) is region
        assert len(mem) == 1

    def test_regions_disjoint_and_aligned(self):
        mem = HostMemory()
        a = mem.register(100)
        b = mem.register(100)
        assert a.end <= b.addr
        assert b.addr % 4096 == 0

    def test_unknown_rkey(self):
        mem = HostMemory()
        with pytest.raises(AccessError):
            mem.lookup(999999)

    def test_bounds_check(self):
        region = MemoryRegion(0x1000, 64)
        region.check(0x1000, 64, "read")
        with pytest.raises(AccessError):
            region.check(0x1000, 65, "read")
        with pytest.raises(AccessError):
            region.check(0x0FFF, 8, "read")

    def test_permission_check(self):
        region = MemoryRegion(0, 64, remote_write=False)
        with pytest.raises(AccessError):
            region.check(0, 8, "write")
        region.check(0, 8, "read")

    def test_word_backing(self):
        region = MemoryRegion(0, 64)
        region.words[8] = 12345
        assert region.read_word(8) == 12345
        assert region.read_word(16) == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(0, 0)


class TestCpuMeters:
    def test_charge_accumulates(self, sim):
        core = CoreMeter(sim)

        def proc():
            yield core.charge(100, "net")
            yield core.charge(50, "app")

        run_gen(sim, proc())
        assert core.total_busy_ns == 150
        assert core.busy_ns == {"net": 100, "app": 50}

    def test_utilization(self, sim):
        core = CoreMeter(sim)

        def proc():
            yield core.charge(50)
            yield sim.timeout(50)

        run_gen(sim, proc())
        assert core.utilization() == pytest.approx(0.5)

    def test_negative_charge_rejected(self, sim):
        core = CoreMeter(sim)
        with pytest.raises(ValueError):
            core.charge(-1)

    def test_cpu_meter_network_fraction(self, sim):
        cpu = CpuMeter(sim, cores=2)

        def proc():
            yield cpu[0].charge(100, "net-poll")
            yield cpu[1].charge(100, "app")

        run_gen(sim, proc())
        assert cpu.network_fraction() == pytest.approx(0.5)
        assert len(cpu) == 2


class TestRnic:
    def make(self, sim, **overrides):
        nic_cfg = NicConfig(**overrides)
        return Rnic(sim, nic_cfg, NetConfig())

    def test_packet_math(self, sim):
        rnic = self.make(sim)
        assert rnic.packets_for(0) == 1
        assert rnic.packets_for(4096) == 1
        assert rnic.packets_for(4097) == 2
        assert rnic.wire_bytes(64) == 64 + 60

    def test_wire_time_scales_with_size(self, sim):
        rnic = self.make(sim)
        assert rnic.wire_time_ns(8192) > rnic.wire_time_ns(64)

    def test_cache_miss_stalls_on_pcie(self, sim):
        rnic = self.make(sim, qp_cache_entries=1, cache_miss_ns=500)

        def proc():
            yield from rnic.tx_process(64, qpn=1)
            t_first = sim.now
            yield from rnic.tx_process(64, qpn=1)  # hit: no PCIe
            t_second = sim.now - t_first
            yield from rnic.tx_process(64, qpn=2)  # miss again
            t_third = sim.now - t_first - t_second
            return t_second, t_third

        hit_time, miss_time = run_gen(sim, proc())
        assert miss_time - hit_time == pytest.approx(500, rel=1e-6)

    def test_message_rate_ceiling(self, sim):
        rnic = self.make(sim, message_rate=0.001, message_burst=1)  # 1/µs

        def proc():
            for _ in range(10):
                yield from rnic.rx_process(64, qpn=1)
            return sim.now

        elapsed = run_gen(sim, proc())
        assert elapsed >= 9_000  # 10 messages at 1/µs

    def test_stats_snapshot(self, sim):
        rnic = self.make(sim)

        def proc():
            yield from rnic.tx_process(100, qpn=1)

        run_gen(sim, proc())
        snap = rnic.snapshot()
        assert snap["messages_tx"] == 1
        assert snap["bytes_tx"] == 100
        assert snap["packets_tx"] == 1
