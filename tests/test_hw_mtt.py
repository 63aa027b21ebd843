"""Memory-translation cache (MTT/MPT) behaviour and fabric helpers."""

import pytest

from repro.config import ClusterConfig, NicConfig
from repro.net import build_cluster
from repro.sim import Simulator
from repro.verbs import QueuePair, Transport, Verb, WorkRequest

from conftest import run_gen


class TestMttCache:
    def test_many_regions_thrash_translation_cache(self):
        """One-sided ops carry rkeys; touching more regions than the MTT
        holds forces PCIe fetches (LITE's motivation, paper §10)."""
        sim = Simulator()
        cfg = ClusterConfig(n_clients=1)
        cfg.nic = NicConfig(mtt_cache_entries=8)
        servers, clients, fabric = build_cluster(sim, cfg)
        server, client = servers[0], clients[0]
        sqp = QueuePair(sim, server, fabric, Transport.RC)
        cqp = QueuePair(sim, client, fabric, Transport.RC)
        cqp.connect(sqp)
        regions = [server.memory.register(4096) for _ in range(32)]

        def proc():
            for _round in range(3):
                for region in regions:
                    yield cqp.post_send(WorkRequest(
                        verb=Verb.WRITE, length=8, remote_addr=region.addr,
                        rkey=region.rkey, signaled=False))

        run_gen(sim, proc())
        assert server.rnic.mtt_cache.stats.miss_ratio > 0.5

    def test_single_region_stays_hot(self):
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=1))
        server, client = servers[0], clients[0]
        sqp = QueuePair(sim, server, fabric, Transport.RC)
        cqp = QueuePair(sim, client, fabric, Transport.RC)
        cqp.connect(sqp)
        region = server.memory.register(4096)

        def proc():
            for _ in range(20):
                yield cqp.post_send(WorkRequest(
                    verb=Verb.WRITE, length=8, remote_addr=region.addr,
                    rkey=region.rkey, signaled=False))

        run_gen(sim, proc())
        assert server.rnic.mtt_cache.stats.misses == 1  # cold miss only


class TestFabricHelpers:
    def test_qpn_allocation_monotonic(self, small_cluster):
        _sim, server, _clients, _fabric = small_cluster
        qpns = [server.alloc_qpn() for _ in range(10)]
        assert qpns == sorted(qpns)
        assert len(set(qpns)) == 10

    def test_cqe_dma_advances_time_and_counts(self, small_cluster):
        sim, server, _clients, _fabric = small_cluster

        def proc():
            yield from server.rnic.cqe_dma()
            return sim.now

        elapsed = run_gen(sim, proc())
        assert elapsed == server.rnic.cfg.cqe_dma_ns
        assert server.rnic.cqes_generated == 1
