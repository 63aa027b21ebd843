"""Additional TCQ/median-degree behaviours under the leader protocol."""

import pytest

from repro.config import ClusterConfig, FlockConfig
from repro.flock import CombiningQueue, FlockNode, PendingSend, RpcRequest
from repro.net import build_cluster
from repro.sim import Simulator


class TestMedianDegreeWindow:
    def test_median_rounds_to_int(self):
        tcq = CombiningQueue(8)
        for degree in (1, 2):
            tcq.record_message(degree)
        # median of [1, 2] = 1.5 -> rounds to 2 (banker's rounding).
        assert tcq.median_degree() == 2

    def test_median_never_below_one(self):
        tcq = CombiningQueue(8)
        assert tcq.median_degree() == 1

    def test_counters_survive_reporting(self):
        tcq = CombiningQueue(8)
        tcq.record_message(4)
        tcq.median_degree()
        assert tcq.messages_sent == 1
        assert tcq.requests_sent == 4


class TestLeaderWindowSemantics:
    """The leader collects its batch *after* the combining window, so
    requests arriving during the window ride the same message."""

    def make(self):
        sim = Simulator()
        servers, clients, fabric = build_cluster(
            sim, ClusterConfig(n_clients=1))
        cfg = FlockConfig(qps_per_handle=1)
        server = FlockNode(sim, servers[0], fabric, cfg)
        server.fl_reg_handler(1, lambda req: (64, None, 100.0))
        client = FlockNode(sim, clients[0], fabric, cfg, seed=1)
        handle = client.fl_connect(server, n_qps=1)
        return sim, server, client, handle

    def test_arrival_during_window_coalesces(self):
        sim, server, client, handle = self.make()

        def first():
            yield from client.fl_call(handle, 0, 1, 64)

        def second():
            # Arrives ~60 ns after the first thread became leader —
            # inside the header+doorbell window (~140 ns).
            yield sim.timeout(60)
            yield from client.fl_call(handle, 1, 1, 64)

        sim.spawn(first())
        sim.spawn(second())
        sim.run(until=2_000_000)
        channel = handle.channels[0]
        assert channel.tcq.messages_sent == 1
        assert channel.tcq.requests_sent == 2

    def test_arrival_after_window_gets_own_message(self):
        sim, server, client, handle = self.make()

        def first():
            yield from client.fl_call(handle, 0, 1, 64)

        def late():
            yield sim.timeout(5_000)  # far outside any tenure
            yield from client.fl_call(handle, 1, 1, 64)

        sim.spawn(first())
        sim.spawn(late())
        sim.run(until=2_000_000)
        channel = handle.channels[0]
        assert channel.tcq.messages_sent == 2
        assert channel.tcq.requests_sent == 2
