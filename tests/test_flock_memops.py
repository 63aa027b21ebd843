"""FLock memory/atomic operations through the connection handle (§6)."""

import pytest

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator
from repro.verbs import Verb


def make_pair(n_qps=2):
    sim = Simulator()
    servers, clients, fabric = build_cluster(sim, ClusterConfig(n_clients=1))
    cfg = FlockConfig(qps_per_handle=n_qps)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (64, None, 100.0))
    client = FlockNode(sim, clients[0], fabric, cfg, seed=3)
    handle = client.fl_connect(server, n_qps=n_qps)
    region = client.fl_attach_mreg(handle, 1 << 20)
    return sim, server, client, handle, region


class TestMemoryVerbs:
    def test_write_then_read(self):
        sim, server, client, handle, region = make_pair()
        out = []

        def app():
            wc = yield from client.fl_write(handle, 0, region.addr,
                                            region.rkey, 256, payload="blob")
            assert wc.ok
            region.words[region.addr] = 42  # server-side state for read
            wc = yield from client.fl_read(handle, 0, region.addr,
                                           region.rkey, 8)
            out.append(wc.payload)

        sim.spawn(app())
        sim.run(until=2_000_000)
        assert out == [42]

    def test_fetch_and_add_serializes(self):
        sim, server, client, handle, region = make_pair()
        olds = []

        def app(tid):
            wc = yield from client.fl_fetch_and_add(handle, tid, region.addr,
                                                    region.rkey, 1)
            olds.append(wc.payload)

        for tid in range(8):
            sim.spawn(app(tid))
        sim.run(until=3_000_000)
        assert sorted(olds) == list(range(8))
        assert region.words[region.addr] == 8

    def test_cmp_and_swap(self):
        sim, server, client, handle, region = make_pair()
        results = []

        def app():
            wc = yield from client.fl_cmp_and_swap(handle, 0, region.addr,
                                                   region.rkey, 0, 111)
            results.append(wc.payload)
            wc = yield from client.fl_cmp_and_swap(handle, 0, region.addr,
                                                   region.rkey, 0, 222)
            results.append(wc.payload)

        sim.spawn(app())
        sim.run(until=2_000_000)
        assert results == [0, 111]
        assert region.words[region.addr] == 111

    def test_mixed_rpc_and_memops_on_shared_qp(self):
        """RPC and memory ops sharing a QP stay correctly routed (§6)."""
        sim, server, client, handle, region = make_pair(n_qps=1)
        rpc_done = [0]
        mem_done = [0]

        def rpc_worker(tid):
            for _ in range(10):
                resp = yield from client.fl_call(handle, tid, 1, 64, tid)
                assert resp.thread_id == tid
                rpc_done[0] += 1

        def mem_worker(tid):
            for _ in range(10):
                wc = yield from client.fl_fetch_and_add(
                    handle, tid, region.addr, region.rkey, 1)
                assert wc.ok
                mem_done[0] += 1

        for tid in range(3):
            sim.spawn(rpc_worker(tid))
        for tid in range(3, 6):
            sim.spawn(mem_worker(tid))
        sim.run(until=10_000_000)
        assert rpc_done[0] == 30
        assert mem_done[0] == 30
        assert region.words[region.addr] == 30

    def test_memops_complete_without_response_dispatcher(self):
        """Memory ops complete via verbs completions, not responses —
        their completion does not consume server worker CPU."""
        sim, server, client, handle, region = make_pair()
        before = server.server.requests_handled

        def app():
            yield from client.fl_write(handle, 0, region.addr, region.rkey, 64)

        sim.spawn(app())
        sim.run(until=2_000_000)
        assert server.server.requests_handled == before

    def test_memop_batch_posting_single_doorbell(self):
        """Followers delegate posting to the leader: concurrent memops on
        one QP coalesce into leader cycles."""
        sim, server, client, handle, region = make_pair(n_qps=1)
        channel = handle.channels[0]

        def app(tid):
            for _ in range(5):
                yield from client.fl_fetch_and_add(handle, tid, region.addr,
                                                   region.rkey, 1)

        for tid in range(6):
            sim.spawn(app(tid))
        sim.run(until=10_000_000)
        assert region.words[region.addr] == 30
        # Fewer messages than ops implies batched doorbells.
        assert channel.tcq.messages_sent < 30
