"""Loss injection: hardware reliability (RC) vs application burden (UD).

The paper's core reliability argument (§1, §3): RC gives packet delivery
"off the shelf" — the RNIC retransmits invisibly — while UD pushes loss
recovery (and reordering/reassembly) into software. These tests inject
fabric loss and watch both worlds behave accordingly.
"""

import pytest

from repro.baselines import FasstEndpoint, FasstServer, UdChunk, UdEndpoint, UdRpcServer
from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import Reassembler, build_cluster
from repro.sim import Simulator
from repro.verbs import QueuePair, Transport


def lossy_cluster(loss_prob, n_clients=1):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=n_clients))
    fabric.loss_prob = loss_prob
    return sim, servers[0], clients, fabric


class TestFlockUnderLoss:
    def test_every_rpc_completes_despite_loss(self):
        """RC retransmission is invisible to FLock: no RPC is ever lost,
        loss shows up purely as latency."""
        sim, server_node, clients, fabric = lossy_cluster(0.05)
        cfg = FlockConfig(qps_per_handle=2)
        server = FlockNode(sim, server_node, fabric, cfg)
        server.fl_reg_handler(1, lambda req: (64, None, 100.0))
        client = FlockNode(sim, clients[0], fabric, cfg, seed=2)
        handle = client.fl_connect(server, n_qps=2)
        done = [0]

        def worker(tid):
            for _ in range(30):
                yield from client.fl_call(handle, tid, 1, 64)
                done[0] += 1

        for tid in range(4):
            sim.spawn(worker(tid))
        sim.run(until=80_000_000)
        assert done[0] == 120  # nothing lost

    def test_loss_inflates_tail_latency(self):
        def run(loss):
            sim, server_node, clients, fabric = lossy_cluster(loss)
            cfg = FlockConfig(qps_per_handle=1)
            server = FlockNode(sim, server_node, fabric, cfg)
            server.fl_reg_handler(1, lambda req: (64, None, 100.0))
            client = FlockNode(sim, clients[0], fabric, cfg, seed=3)
            handle = client.fl_connect(server, n_qps=1)
            latencies = []

            def worker():
                for _ in range(100):
                    started = sim.now
                    yield from client.fl_call(handle, 0, 1, 64)
                    latencies.append(sim.now - started)

            sim.spawn(worker())
            sim.run(until=100_000_000)
            return max(latencies)

        assert run(0.10) > run(0.0)


class TestUdUnderLoss:
    def test_fasst_loses_requests(self):
        sim, server_node, clients, fabric = lossy_cluster(0.2)
        server = FasstServer(sim, server_node, fabric, n_workers=1)
        server.register_handler(1, lambda req: (64, None, 50.0))
        endpoint = FasstEndpoint(sim, clients[0], fabric,
                                 timeout_ns=60_000.0)
        lost = [0]

        def worker():
            for _ in range(50):
                resp = yield from endpoint.call(server, server.qps[0], 1, 64)
                if resp is None:
                    lost[0] += 1

        sim.spawn(worker())
        sim.run(until=100_000_000)
        assert lost[0] > 0
        assert endpoint.lost_requests == lost[0]

    def test_loss_free_fabric_loses_nothing(self):
        sim, server_node, clients, fabric = lossy_cluster(0.0)
        server = FasstServer(sim, server_node, fabric, n_workers=1)
        server.register_handler(1, lambda req: (64, None, 50.0))
        endpoint = FasstEndpoint(sim, clients[0], fabric)

        def worker():
            for _ in range(50):
                resp = yield from endpoint.call(server, server.qps[0], 1, 64)
                assert resp is not None

        sim.spawn(worker())
        sim.run(until=100_000_000)
        assert endpoint.lost_requests == 0


class TestUdChunking:
    def test_large_payload_splits_and_reassembles(self):
        sim, server_node, clients, fabric = lossy_cluster(0.0)
        src = UdEndpoint(sim, clients[0], fabric)
        dst = QueuePair(sim, server_node, fabric, Transport.UD)
        dst.post_recv(4096, n=64)

        def sender():
            n = yield from src.send_large(dst, nbytes=10_000, payload="big")
            return n

        proc = sim.spawn(sender())
        sim.run(until=5_000_000)
        assert proc.value == 3  # 4096 + 4096 + 1808

        reassembler = Reassembler()
        completed = None
        for wc in dst.recv_cq.poll(max_entries=16):
            chunk = wc.payload
            assert isinstance(chunk, UdChunk)
            result = reassembler.add(chunk.msg_id, chunk.chunk_idx,
                                     chunk.n_chunks, chunk.payload)
            if result is not None:
                completed = result
        assert completed is not None and len(completed) == 3

    def test_chunks_lost_under_loss_leave_message_incomplete(self):
        sim, server_node, clients, fabric = lossy_cluster(0.5)
        src = UdEndpoint(sim, clients[0], fabric)
        dst = QueuePair(sim, server_node, fabric, Transport.UD)
        dst.post_recv(4096, n=64)

        def sender():
            for _ in range(10):
                yield from src.send_large(dst, nbytes=12_000)

        sim.spawn(sender())
        sim.run(until=10_000_000)
        reassembler = Reassembler()
        complete = 0
        for wc in dst.recv_cq.poll(max_entries=64):
            chunk = wc.payload
            if reassembler.add(chunk.msg_id, chunk.chunk_idx,
                               chunk.n_chunks, chunk.payload) is not None:
                complete += 1
        # With 50% chunk loss, most 3-chunk messages never complete.
        assert complete < 10
        assert fabric.messages_dropped > 0
