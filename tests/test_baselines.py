"""Baseline systems: UD RPC, eRPC, FaSST, FaRM-style sharing, raw reads."""

import pytest

from repro.baselines import (
    ErpcEndpoint,
    ErpcServer,
    FasstEndpoint,
    FasstServer,
    RcRpcClient,
    RcRpcServer,
    ReadClient,
    UdEndpoint,
    UdRpcServer,
)
from repro.config import ClusterConfig, NicConfig
from repro.net import build_cluster
from repro.sim import Simulator


def cluster(n_clients=2, nic=None):
    sim = Simulator()
    cfg = ClusterConfig(n_clients=n_clients)
    if nic is not None:
        cfg.nic = nic
    servers, clients, fabric = build_cluster(sim, cfg)
    return sim, servers[0], clients, fabric


class TestUdRpc:
    def test_echo(self):
        sim, server_node, clients, fabric = cluster()
        server = UdRpcServer(sim, server_node, fabric, n_workers=2)
        server.register_handler(1, lambda req: (64, ("pong", req.payload), 50.0))
        out = []

        def app():
            ep = UdEndpoint(sim, clients[0], fabric)
            resp = yield from ep.call(server, server.qp_for_client(0), 1, 64,
                                      "ping")
            out.append(resp.payload)

        sim.spawn(app())
        sim.run(until=1_000_000)
        assert out == [("pong", "ping")]

    def test_multiple_outstanding_matched_by_req_id(self):
        sim, server_node, clients, fabric = cluster()
        server = UdRpcServer(sim, server_node, fabric, n_workers=2)
        server.register_handler(1, lambda req: (64, req.payload, 50.0))
        ep = UdEndpoint(sim, clients[0], fabric)
        results = []

        def app(i):
            resp = yield from ep.call(server, server.qp_for_client(0), 1, 64, i)
            results.append((i, resp.payload))

        for i in range(10):
            sim.spawn(app(i))
        sim.run(until=2_000_000)
        assert sorted(results) == [(i, i) for i in range(10)]

    def test_clients_spread_over_server_qps(self):
        sim, server_node, clients, fabric = cluster()
        server = UdRpcServer(sim, server_node, fabric, n_workers=4)
        qps = {server.qp_for_client(i) for i in range(8)}
        assert len(qps) == 4

    def test_server_charges_cpu_in_network_categories(self):
        sim, server_node, clients, fabric = cluster()
        server = UdRpcServer(sim, server_node, fabric, n_workers=1)
        server.register_handler(1, lambda req: (64, None, 10.0))

        def app():
            ep = UdEndpoint(sim, clients[0], fabric)
            for _ in range(20):
                yield from ep.call(server, server.qps[0], 1, 64)

        sim.spawn(app())
        sim.run(until=5_000_000)
        # The §2.2 claim: most server cycles are network-stack work.
        assert server_node.cpu.network_fraction() > 0.8

    def test_session_credits_bound_outstanding(self):
        sim, server_node, clients, fabric = cluster()
        server = UdRpcServer(sim, server_node, fabric, n_workers=1)
        server.register_handler(1, lambda req: (64, None, 5000.0))
        ep = UdEndpoint(sim, clients[0], fabric, session_credits=2)
        in_flight = [0]
        max_in_flight = [0]

        def app():
            in_flight[0] += 1
            max_in_flight[0] = max(max_in_flight[0], in_flight[0])
            yield from ep.call(server, server.qps[0], 1, 64)
            in_flight[0] -= 1

        for _ in range(8):
            sim.spawn(app())
        sim.run(until=5_000_000)
        # With a 2-credit window, at most 2 calls pass the credit gate at
        # once (others are blocked before sending).
        assert ep.completed == 8


class TestFasst:
    def test_drops_surface_as_lost_requests(self):
        sim, server_node, clients, fabric = cluster()
        server = FasstServer(sim, server_node, fabric, n_workers=1,
                             recv_pool_per_worker=1)
        server.register_handler(1, lambda req: (64, None, 20_000.0))
        endpoints = [FasstEndpoint(sim, clients[0], fabric,
                                   timeout_ns=100_000.0) for _ in range(8)]
        outcomes = []

        def app(ep):
            resp = yield from ep.call(server, server.qps[0], 1, 64)
            outcomes.append(resp is not None)

        for ep in endpoints:
            sim.spawn(app(ep))
        sim.run(until=2_000_000)
        lost = sum(ep.lost_requests for ep in endpoints)
        assert server.recv_drops > 0
        assert lost == server.recv_drops
        assert outcomes.count(False) == lost

    def test_no_losses_with_ample_buffers(self):
        sim, server_node, clients, fabric = cluster()
        server = FasstServer(sim, server_node, fabric, n_workers=2)
        server.register_handler(1, lambda req: (64, None, 50.0))
        ep = FasstEndpoint(sim, clients[0], fabric)
        done = [0]

        def app():
            for _ in range(20):
                resp = yield from ep.call(server, server.qps[0], 1, 64)
                assert resp is not None
                done[0] += 1

        sim.spawn(app())
        sim.run(until=5_000_000)
        assert done[0] == 20 and ep.lost_requests == 0


class TestErpc:
    def test_extra_software_cost_vs_plain_ud(self):
        def run(server_cls, endpoint_cls):
            sim, server_node, clients, fabric = cluster()
            server = server_cls(sim, server_node, fabric, n_workers=1)
            server.register_handler(1, lambda req: (64, None, 50.0))
            ep = endpoint_cls(sim, clients[0], fabric)
            times = []

            def app():
                yield from ep.call(server, server.qps[0], 1, 64)
                times.append(sim.now)

            sim.spawn(app())
            sim.run(until=1_000_000)
            return times[0]

        erpc_latency = run(ErpcServer, ErpcEndpoint)
        ud_latency = run(UdRpcServer, UdEndpoint)
        assert erpc_latency > ud_latency  # CC bookkeeping costs cycles


class TestRcRpc:
    def test_echo_over_shared_qp(self):
        sim, server_node, clients, fabric = cluster()
        server = RcRpcServer(sim, server_node, fabric, n_workers=2)
        server.register_handler(1, lambda req: (64, ("r", req.payload), 50.0))
        client = RcRpcClient(sim, clients[0], fabric)
        handle = client.connect(server, n_qps=1, threads_per_qp=4)
        out = []

        def app(tid):
            resp = yield from client.call(handle, tid, 1, 64, tid)
            out.append(resp.payload)

        for tid in range(4):
            sim.spawn(app(tid))
        sim.run(until=2_000_000)
        assert sorted(out) == [("r", i) for i in range(4)]

    def test_spinlock_contention_measured(self):
        sim, server_node, clients, fabric = cluster()
        server = RcRpcServer(sim, server_node, fabric, n_workers=2)
        server.register_handler(1, lambda req: (64, None, 50.0))
        client = RcRpcClient(sim, clients[0], fabric)
        handle = client.connect(server, n_qps=1, threads_per_qp=4)

        done = []

        def app(tid):
            for _ in range(10):
                yield from client.call(handle, tid, 1, 64)
                done.append(tid)

        for tid in range(4):
            sim.spawn(app(tid))
        sim.run(until=10_000_000)
        assert len(done) == 40
        assert handle.channels[0].lock.contended > 0

    def test_no_sharing_has_no_lock(self):
        sim, server_node, clients, fabric = cluster()
        server = RcRpcServer(sim, server_node, fabric)
        client = RcRpcClient(sim, clients[0], fabric)
        handle = client.connect(server, n_qps=4, threads_per_qp=1)
        assert all(ch.lock is None for ch in handle.channels)
        # Threads map to distinct QPs.
        qps = {handle.channel_for(t).index for t in range(4)}
        assert len(qps) == 4


class TestRawReads:
    def test_reads_complete(self):
        sim, server_node, clients, fabric = cluster(n_clients=1)
        region = server_node.memory.register(1 << 16)
        rc = ReadClient(sim, clients[0], fabric, server_node, region,
                        n_qps=2, outstanding_per_qp=2)
        rc.start()
        sim.run(until=200_000)
        assert rc.completed > 0

    def test_many_qps_thrash_the_cache(self):
        nic = NicConfig(qp_cache_entries=16)
        sim, server_node, clients, fabric = cluster(n_clients=1, nic=nic)
        region = server_node.memory.register(1 << 16)
        rc = ReadClient(sim, clients[0], fabric, server_node, region,
                        n_qps=64, outstanding_per_qp=1)
        rc.start()
        sim.run(until=300_000)
        assert server_node.rnic.qp_cache.stats.miss_ratio > 0.5
        assert server_node.rnic.pcie.reads_issued > 0
