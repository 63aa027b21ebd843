"""Transaction-bench topology: partitioning, replication, regions."""

import gc
import random
import tracemalloc

import pytest

from repro.apps.kvstore import KvEntry, partition_of, replicas_of
from repro.config import ClusterConfig
from repro.harness.txnbench import (TxnBenchConfig, build_txn_servers,
                                    run_flocktx)
from repro.net import build_cluster
from repro.sim import Simulator


def build(n_keys_per_server=200):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=1, n_servers=3))
    cfg = TxnBenchConfig(n_servers=3,
                         subscribers_per_server=n_keys_per_server)
    return cfg, build_txn_servers(cfg, servers), servers


class TestTopology:
    def test_each_server_is_primary_for_its_partition(self):
        cfg, txn_servers, _hw = build()
        for s, server in enumerate(txn_servers):
            assert server.server_id == s
            assert server.primary.partition_id == s

    def test_three_way_replication(self):
        cfg, txn_servers, _hw = build()
        for p in range(3):
            holders = [s for s in range(3)
                       if p in txn_servers[s].replicas]
            assert sorted(holders) == sorted(replicas_of(p, 3))

    def test_population_covers_every_key_on_every_copy(self):
        cfg, txn_servers, _hw = build()
        for key in range(cfg.n_keys()):
            p = partition_of(key, 3)
            for s in replicas_of(p, 3):
                entry = txn_servers[s].replicas[p].get(key)
                assert entry is not None
                assert entry.version == 1

    def test_only_primaries_publish_version_words(self):
        cfg, txn_servers, _hw = build()
        for s, server in enumerate(txn_servers):
            assert server.primary.region is not None
            for p, copy in server.replicas.items():
                if p != s:
                    assert copy.region is None

    def test_version_region_sized_for_population(self):
        cfg, txn_servers, _hw = build()
        primary = txn_servers[0].primary
        # Publishing every key must fit the registered region.
        keys = [k for k in range(cfg.n_keys())
                if partition_of(k, 3) == 0]
        for key in keys:
            addr = primary.addr_of(key)
            assert primary.region.contains(addr, 8)


class TestBulkPopulation:
    def test_version_words_laid_out_in_key_order(self):
        cfg, txn_servers, _hw = build(n_keys_per_server=50)
        for s, server in enumerate(txn_servers):
            primary = server.primary
            keys = [k for k in range(cfg.n_keys()) if partition_of(k, 3) == s]
            for rank, key in enumerate(keys):
                addr = primary.addr_of(key)
                assert addr == primary.region.addr + 8 * rank
                assert primary.region.words[addr] == 2  # version 1, unlocked
            assert len(primary.region.words) == len(keys)

    def test_every_copy_holds_the_loaded_record(self):
        cfg, txn_servers, _hw = build(n_keys_per_server=50)
        for key in range(cfg.n_keys()):
            p = partition_of(key, 3)
            for s in replicas_of(p, 3):
                assert txn_servers[s].replicas[p].get(key) == KvEntry(0, 1, None)

    def test_copies_share_one_population_and_start_unwritten(self):
        cfg, txn_servers, _hw = build(n_keys_per_server=50)
        for p in range(3):
            copies = [txn_servers[s].replicas[p] for s in replicas_of(p, 3)]
            assert all(c.population is copies[0].population for c in copies)
            assert list(copies[0].population) == [
                k for k in range(cfg.n_keys()) if partition_of(k, 3) == p]
            for copy in copies:
                assert not copy.values and not copy.versions
                assert not copy.owners and not copy._addrs

    def test_build_leaves_little_live_memory(self):
        sim = Simulator()
        servers, _clients, _fabric = build_cluster(
            sim, ClusterConfig(n_clients=1, n_servers=3))
        cfg = TxnBenchConfig(n_servers=3, subscribers_per_server=30_000)
        tracemalloc.start()
        try:
            built = build_txn_servers(cfg, servers)
            live, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(built) == 3
        assert live <= 2 * 1024 * 1024, live

    def test_copies_iterate_keys_in_increasing_order(self):
        _cfg, txn_servers, _hw = build(n_keys_per_server=50)
        for server in txn_servers:
            for copy in server.replicas.values():
                keys = list(copy.keys())
                assert keys == sorted(keys)


def _tracked_delta(n_keys_per_server):
    """Live GC-tracked objects added by one build, kept alive."""
    gc.collect()
    before = len(gc.get_objects())
    built = build(n_keys_per_server)
    gc.collect()
    delta = len(gc.get_objects()) - before
    del built
    return delta


class TestGcInvisibility:
    def test_population_columns_are_untracked(self):
        _cfg, txn_servers, _hw = build()
        for server in txn_servers:
            for copy in server.replicas.values():
                for column in (copy.values, copy.versions, copy.owners,
                               copy._addrs):
                    assert not gc.is_tracked(column)
                # The collector visits no key of the population.
                assert all(isinstance(ref, type)
                           for ref in gc.get_referents(copy.population))
            assert not gc.is_tracked(server.primary.region.words)

    def test_tracked_objects_do_not_grow_with_population(self):
        _tracked_delta(200)  # warm caches and lazy imports
        small = _tracked_delta(200)
        large = _tracked_delta(20_000)
        assert abs(large - small) < 100, (small, large)


class _FirstRun(Exception):
    pass


def _live_randoms_at_first_run(monkeypatch, workload, coroutines):
    """``random.Random`` objects alive when a small FLockTX run first
    enters the event loop."""
    counted = []

    def first_run(sim, until=None):
        gc.collect()
        counted.append(sum(isinstance(o, random.Random)
                           for o in gc.get_objects()))
        raise _FirstRun

    monkeypatch.setattr(Simulator, "run", first_run)
    cfg = TxnBenchConfig(workload=workload, n_clients=2,
                         threads_per_client=2, subscribers_per_server=50,
                         accounts_per_thread=50,
                         coroutines_per_thread=coroutines)
    try:
        run_flocktx(cfg)
    except _FirstRun:
        pass
    return counted[0]


class TestWorkloadStreams:
    @pytest.mark.parametrize("workload", ["tatp", "smallbank"])
    def test_coroutines_hold_no_random(self, monkeypatch, workload):
        """A txn coroutine's workload draws from a ``WordStream``, so
        adding coroutines adds no Mersenne Twister."""
        one = _live_randoms_at_first_run(monkeypatch, workload, 1)
        four = _live_randoms_at_first_run(monkeypatch, workload, 4)
        assert one == four


class TestConfigHelpers:
    def test_n_keys_tatp(self):
        cfg = TxnBenchConfig(workload="tatp", n_servers=3,
                             subscribers_per_server=100)
        assert cfg.n_keys() == 300

    def test_n_keys_smallbank_two_rows_per_account(self):
        cfg = TxnBenchConfig(workload="smallbank", threads_per_client=4,
                             accounts_per_thread=50)
        assert cfg.n_keys() == 2 * 200

    def test_make_workload_types(self):
        import random
        cfg = TxnBenchConfig(workload="tatp", subscribers_per_server=10)
        wl = cfg.make_workload(random.Random(1))
        txn = wl.next_txn()
        assert txn.reads or txn.writes

    @pytest.mark.parametrize("field, value", [
        ("subscribers_per_server", 0),
        ("accounts_per_thread", 0),
        ("coroutines_per_thread", 0),
    ])
    def test_rejects_values_that_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            TxnBenchConfig(**{field: value})
