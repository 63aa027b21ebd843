"""FlockServer internals: worker routing, manual dispatch, accounting."""

import pytest

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator, TrackedStore


def make(n_qps=4, n_clients=2, **flock_kwargs):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=n_clients))
    cfg = FlockConfig(qps_per_handle=n_qps, **flock_kwargs)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (64, req.payload, 100.0))
    nodes = [FlockNode(sim, node, fabric, cfg, seed=i)
             for i, node in enumerate(clients)]
    handles = [n.fl_connect(server, n_qps=n_qps) for n in nodes]
    return sim, server, nodes, handles


class TestWorkerRouting:
    def test_rings_spread_round_robin_over_workers(self):
        sim, server, nodes, handles = make(n_qps=4, n_clients=2)
        counts = server.server._rings_per_worker
        assert sum(counts) == 8  # 2 clients x 4 QPs
        assert max(counts) - min(counts) <= 1

    def test_requests_counted_per_server(self):
        sim, server, nodes, handles = make()

        def worker():
            for i in range(10):
                resp = yield from nodes[0].fl_call(handles[0], 0, 1, 64, i)
                assert resp.payload == i

        sim.spawn(worker())
        sim.run(until=5_000_000)
        assert server.server.requests_handled == 10
        assert server.server.messages_handled == 10


class TestWorkerPool:
    def test_resized_server_registers_only_its_inboxes(self):
        """A server resized before it starts (FLockTX matches its pool
        to the client threads) audits exactly its workers' inboxes."""
        sim = Simulator()
        sim.instrumented = True
        servers, clients, fabric = build_cluster(
            sim, ClusterConfig(n_clients=1))
        cfg = FlockConfig(qps_per_handle=4)
        server = FlockNode(sim, servers[0], fabric, cfg)
        server.server.set_n_workers(4)
        FlockNode(sim, clients[0], fabric, cfg).fl_connect(server)
        prefix = servers[0].name + ".inbox"
        inboxes = [c for c in sim.components if isinstance(c, TrackedStore)
                   and c.name.startswith(prefix)]
        assert inboxes == server.server._inboxes
        assert len({inbox.name for inbox in inboxes}) == 4


class TestServerSideResponseCoalescing:
    def test_backlogged_responses_coalesce_across_messages(self):
        """Slow handlers pile request messages up; their responses go
        back in fewer RDMA writes than messages arrived (§4.3).  Client
        coalescing is disabled so the backlog consists of single-request
        messages the server must merge on its side."""
        sim, server, nodes, handles = make(n_qps=1, n_clients=1)
        nodes[0].client.coalescing_enabled = False
        server.server.handlers[1] = lambda req: (64, None, 5_000.0)
        done = [0]

        def worker(tid):
            for _ in range(10):
                yield from nodes[0].fl_call(handles[0], tid, 1, 64)
                done[0] += 1

        for tid in range(6):
            sim.spawn(worker(tid))
        sim.run(until=50_000_000)
        assert done[0] == 60
        schannel = server.server.clients[handles[0].client_id].channels[0]
        assert schannel.posted_writes < schannel.messages_received

    def test_light_load_flushes_immediately(self):
        sim, server, nodes, handles = make(n_qps=1, n_clients=1)

        def worker():
            for _ in range(5):
                yield from nodes[0].fl_call(handles[0], 0, 1, 64)

        sim.spawn(worker())
        sim.run(until=5_000_000)
        schannel = server.server.clients[handles[0].client_id].channels[0]
        assert schannel.posted_writes == schannel.messages_received == 5
        assert schannel.response_accum == []


class TestManualDispatchDepth:
    def test_mixed_auto_and_manual_rpcs(self):
        sim, server, nodes, handles = make(n_qps=2, n_clients=1)
        server.fl_reg_manual(9)
        served = [0]

        def server_app():
            while True:
                token, request = yield from server.fl_recv_rpc()
                served[0] += 1
                yield from server.fl_send_res(token, request, 32,
                                              payload=("manual",
                                                       request.payload))

        auto, manual = [], []

        def client_app(tid):
            for i in range(5):
                resp = yield from nodes[0].fl_call(handles[0], tid, 1, 64, i)
                auto.append(resp.payload)
                resp = yield from nodes[0].fl_call(handles[0], tid, 9, 64, i)
                manual.append(resp.payload)

        sim.spawn(server_app())
        for tid in range(3):
            sim.spawn(client_app(tid))
        sim.run(until=20_000_000)
        assert len(auto) == 15 and len(manual) == 15
        assert served[0] == 15
        assert all(p[0] == "manual" for p in manual)
        # Auto-handled count excludes manual requests at dispatch time,
        # then fl_send_res adds them back.
        assert server.server.requests_handled == 30
