"""Network substrate: fabric transfers, loss injection, packetization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, NetConfig
from repro.net import Fabric, Node, Reassembler, build_cluster, segment
from repro.sim import Simulator

from conftest import run_gen


class TestSegment:
    def test_exact_multiple(self):
        assert segment(8192, 4096) == [4096, 4096]

    def test_remainder(self):
        assert segment(5000, 4096) == [4096, 904]

    def test_zero_payload(self):
        assert segment(0, 4096) == [0]

    def test_small(self):
        assert segment(64, 4096) == [64]

    def test_invalid(self):
        with pytest.raises(ValueError):
            segment(-1, 4096)
        with pytest.raises(ValueError):
            segment(10, 0)

    @given(st.integers(min_value=1, max_value=10_000_000),
           st.integers(min_value=1, max_value=9000))
    @settings(max_examples=50, deadline=None)
    def test_segments_sum_to_payload(self, nbytes, mtu):
        chunks = segment(nbytes, mtu)
        assert sum(chunks) == nbytes
        assert all(0 < c <= mtu for c in chunks)
        assert all(c == mtu for c in chunks[:-1])


class TestReassembler:
    def test_single_chunk_completes_immediately(self):
        r = Reassembler()
        assert r.add(1, 0, 1, "only") == ["only"]
        assert r.completed == 1

    def test_out_of_order_reassembly(self):
        r = Reassembler()
        assert r.add(7, 2, 3, "c") is None
        assert r.add(7, 0, 3, "a") is None
        assert r.add(7, 1, 3, "b") == ["a", "b", "c"]
        assert r.pending == 0

    def test_interleaved_messages(self):
        r = Reassembler()
        r.add(1, 0, 2, "1a")
        r.add(2, 0, 2, "2a")
        assert r.pending == 2
        assert r.add(2, 1, 2, "2b") == ["2a", "2b"]
        assert r.add(1, 1, 2, "1b") == ["1a", "1b"]

    def test_duplicate_chunk_rejected(self):
        r = Reassembler()
        r.add(1, 0, 2, "a")
        with pytest.raises(ValueError):
            r.add(1, 0, 2, "a")

    def test_bad_coordinates(self):
        r = Reassembler()
        with pytest.raises(ValueError):
            r.add(1, 5, 3, "x")

    @given(st.integers(min_value=1, max_value=20),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_any_arrival_order_reassembles(self, n_chunks, rng):
        r = Reassembler()
        order = list(range(n_chunks))
        rng.shuffle(order)
        result = None
        for idx in order:
            result = r.add(99, idx, n_chunks, "chunk%d" % idx)
        assert result == ["chunk%d" % i for i in range(n_chunks)]


class TestFabric:
    def test_transfer_timing(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        client = clients[0]

        def proc():
            delivered = yield from fabric.transfer(
                client, server, 64, 1, 2)
            return delivered, sim.now

        delivered, elapsed = run_gen(sim, proc())
        assert delivered
        cfg = fabric.cfg
        min_time = cfg.propagation_ns + client.rnic.cfg.base_latency_ns
        assert elapsed >= min_time

    def test_transfer_timing_exact_cold_then_warm(self):
        """Uncontended 64 B transfers land on the pipeline's clock
        exactly: the cold one pays a PCIe state fetch on each NIC (QP 1
        at the sender, QP 2 at the receiver), the warm one only wire
        serialization, propagation and NIC base latency."""
        sim = Simulator()
        cfg = ClusterConfig(n_clients=1)
        servers, clients, fabric = build_cluster(sim, cfg)
        durations = []

        def proc():
            for _ in range(2):
                t0 = sim.now
                assert (yield from fabric.transfer(
                    clients[0], servers[0], 64, 1, 2))
                durations.append(sim.now - t0)

        run_gen(sim, proc())
        net, nic = cfg.net, cfg.nic
        wire = (64 + net.per_packet_header_bytes) / net.bandwidth_bytes_per_ns
        warm = wire + net.propagation_ns + nic.base_latency_ns
        cold = 2 * nic.cache_miss_ns + warm
        assert durations[0] == pytest.approx(cold, rel=1e-12)
        assert durations[1] == pytest.approx(warm, rel=1e-12)

    def test_bigger_messages_take_longer(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        times = []

        def proc(size):
            yield from fabric.transfer(clients[0], server, size, 1, 2)
            times.append(sim.now)

        run_gen(sim, proc(64))
        small = times[-1]
        sim2 = Simulator()
        servers2, clients2, fabric2 = build_cluster(sim2, ClusterConfig(n_clients=1))
        times2 = []

        def proc2():
            yield from fabric2.transfer(clients2[0], servers2[0], 1 << 20, 1, 2)
            times2.append(sim2.now)

        run_gen(sim2, proc2())
        assert times2[-1] > small

    def test_unreliable_loss_drops(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        fabric.loss_prob = 1.0

        def proc():
            delivered = yield from fabric.transfer(
                clients[0], server, 64, 1, 2, reliable=False)
            return delivered

        assert run_gen(sim, proc()) is False
        assert fabric.messages_dropped == 1

    def test_reliable_loss_retransmits(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        fabric.loss_prob = 1.0

        def proc():
            delivered = yield from fabric.transfer(
                clients[0], server, 64, 1, 2, reliable=True)
            return delivered, sim.now

        delivered, elapsed = run_gen(sim, proc())
        assert delivered
        assert elapsed >= fabric.retransmit_ns

    def test_jitter_bounded(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        times = []

        def proc():
            yield from fabric.transfer(clients[0], server, 64, 1, 2,
                                       jitter_ns=100.0)
            times.append(sim.now)

        run_gen(sim, proc())
        base = (fabric.cfg.propagation_ns
                + clients[0].rnic.cfg.base_latency_ns)
        assert times[0] >= base


class TestBuildCluster:
    def test_topology(self, sim):
        servers, clients, fabric = build_cluster(
            sim, ClusterConfig(n_clients=5, n_servers=2))
        assert len(servers) == 2 and len(clients) == 5
        names = {n.name for n in servers + clients}
        assert len(names) == 7  # all distinct

    def test_nodes_have_hardware(self, small_cluster):
        _sim, server, clients, _fabric = small_cluster
        assert len(server.cpu) == 32
        assert server.rnic.qp_cache.capacity == 560
        assert server.alloc_qpn() != server.alloc_qpn()


class TestPerPacketLoss:
    def test_reliable_pays_retransmit_per_lost_packet(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        fabric.loss_prob = 1.0  # every packet loses its draw once
        nbytes = 1 << 20
        n_packets = clients[0].rnic.packets_for(nbytes)
        assert n_packets == 256

        def proc():
            t0 = sim.now
            ok = yield from fabric.transfer(clients[0], server, nbytes, 1, 2)
            return ok, sim.now - t0

        ok, elapsed = run_gen(sim, proc())
        assert ok  # RC always delivers
        assert elapsed >= n_packets * fabric.retransmit_ns

    def test_large_unreliable_messages_are_more_exposed(self, small_cluster):
        # With per-packet loss, a 1-MTU message sometimes survives a
        # lossy wire that a 256-MTU message cannot cross.
        sim, server, clients, fabric = small_cluster
        fabric.loss_prob = 0.3
        outcomes = {64: 0, 1 << 20: 0}

        def proc():
            for _ in range(30):
                for nbytes in outcomes:
                    ok = yield from fabric.transfer(
                        clients[0], server, nbytes, 1, 2, reliable=False)
                    outcomes[nbytes] += bool(ok)

        run_gen(sim, proc())
        assert outcomes[64] > 0
        assert outcomes[1 << 20] == 0  # (1 - 0.3)^256 ~ 0
        assert fabric.messages_dropped > 0


class TestReassemblerLifecycle:
    def test_pending_bytes_tracks_partials(self):
        r = Reassembler()
        r.add(1, 0, 3, nbytes=100)
        r.add(1, 1, 3, nbytes=100)
        assert r.pending == 1
        assert r.pending_bytes == 200
        assert r.add(1, 2, 3, nbytes=100)
        assert r.pending == 0 and r.pending_bytes == 0
        assert r.completed == 1
