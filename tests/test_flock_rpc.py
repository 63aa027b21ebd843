"""FLock end-to-end behaviour: RPC, coalescing, credits, scheduling."""

import collections

import pytest

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.flock.rpc import FlockClient
from repro.net import build_cluster
from repro.sim import Simulator


def make_pair(n_clients=1, n_qps=2, flock_cfg=None, handler_ns=100.0,
              resp_size=64):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=n_clients))
    cfg = flock_cfg or FlockConfig(qps_per_handle=n_qps)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (resp_size, ("echo", req.payload),
                                          handler_ns))
    client_nodes = [FlockNode(sim, node, fabric, cfg, seed=i)
                    for i, node in enumerate(clients)]
    handles = [c.fl_connect(server, n_qps=n_qps) for c in client_nodes]
    return sim, server, client_nodes, handles


class TestBasicRpc:
    def test_echo_roundtrip(self):
        sim, server, clients, handles = make_pair()
        out = []

        def app():
            resp = yield from clients[0].fl_call(handles[0], 0, 1, 64, "hi")
            out.append(resp)

        sim.spawn(app())
        sim.run(until=1_000_000)
        assert out and out[0].payload == ("echo", "hi")
        assert out[0].thread_id == 0 and out[0].seq_id == 0

    def test_send_then_recv_split_api(self):
        sim, server, clients, handles = make_pair()
        out = []

        def app():
            ev = yield from clients[0].fl_send_rpc(handles[0], 0, 1, 64, "x")
            resp = yield from clients[0].fl_recv_res(ev)
            out.append(resp.payload)

        sim.spawn(app())
        sim.run(until=1_000_000)
        assert out == [("echo", "x")]

    def test_sequence_ids_map_responses_to_requests(self):
        """Out-of-order completion still routes by (thread, seq) (§4.1)."""
        sim, server, clients, handles = make_pair()
        results = {}

        def app(tid, n):
            for i in range(n):
                resp = yield from clients[0].fl_call(handles[0], tid, 1, 64,
                                                     (tid, i))
                results[(tid, i)] = resp.payload

        for tid in range(4):
            sim.spawn(app(tid, 5))
        sim.run(until=3_000_000)
        assert len(results) == 20
        for (tid, i), payload in results.items():
            assert payload == ("echo", (tid, i))

    def test_many_outstanding_per_thread(self):
        sim, server, clients, handles = make_pair()
        done = [0]

        def sub():
            for _ in range(10):
                yield from clients[0].fl_call(handles[0], 0, 1, 64)
                done[0] += 1

        for _ in range(8):
            sim.spawn(sub())
        sim.run(until=5_000_000)
        assert done[0] == 80

    def test_unregistered_rpc_raises(self):
        sim, server, clients, handles = make_pair()

        def app():
            yield from clients[0].fl_call(handles[0], 0, 99, 64)

        sim.spawn(app())
        with pytest.raises(KeyError):
            sim.run(until=1_000_000)


class TestCoalescing:
    def test_sharing_threads_coalesce(self):
        sim, server, clients, handles = make_pair(n_qps=1)
        handle = handles[0]

        def worker(tid):
            for _ in range(20):
                yield from clients[0].fl_call(handle, tid, 1, 64)

        for tid in range(8):
            sim.spawn(worker(tid))
        sim.run(until=5_000_000)
        assert handle.mean_coalescing_degree() > 1.5

    def test_same_thread_does_not_coalesce(self):
        """Coroutines of one OS thread submit serially (§8.5.2)."""
        sim, server, clients, handles = make_pair(n_qps=1)
        handle = handles[0]

        def sub():
            for _ in range(10):
                yield from clients[0].fl_call(handle, 0, 1, 64)

        for _ in range(8):
            sim.spawn(sub())
        sim.run(until=5_000_000)
        assert handle.mean_coalescing_degree() == pytest.approx(1.0)

    def test_coalescing_disabled_ablation(self):
        sim, server, clients, handles = make_pair(n_qps=1)
        clients[0].client.coalescing_enabled = False
        handle = handles[0]

        def worker(tid):
            for _ in range(20):
                yield from clients[0].fl_call(handle, tid, 1, 64)

        for tid in range(8):
            sim.spawn(worker(tid))
        sim.run(until=8_000_000)
        assert handle.mean_coalescing_degree() == pytest.approx(1.0)

    def test_coalesced_message_reduces_server_messages(self):
        """Server receives fewer messages than requests when sharing."""
        sim, server, clients, handles = make_pair(n_qps=1)
        handle = handles[0]

        def worker(tid):
            for _ in range(25):
                yield from clients[0].fl_call(handle, tid, 1, 64)

        for tid in range(8):
            sim.spawn(worker(tid))
        sim.run(until=8_000_000)
        assert server.server.requests_handled == 200
        assert server.server.messages_handled < 200


class TestCredits:
    def test_sustained_traffic_renews_credits(self):
        cfg = FlockConfig(qps_per_handle=1, credit_batch=8,
                          credit_renew_threshold=4)
        sim, server, clients, handles = make_pair(n_qps=1, flock_cfg=cfg)
        done = [0]

        def worker(tid):
            for _ in range(30):
                yield from clients[0].fl_call(handles[0], tid, 1, 64)
                done[0] += 1

        for tid in range(2):
            sim.spawn(worker(tid))
        sim.run(until=10_000_000)
        assert done[0] == 60  # well beyond the initial 8 credits
        channel = handles[0].channels[0]
        assert channel.credits.grants_received >= 1
        assert server.server.renewals_handled >= 1

    def test_requests_never_exceed_granted_credits(self):
        cfg = FlockConfig(qps_per_handle=1, credit_batch=4,
                          credit_renew_threshold=2)
        sim, server, clients, handles = make_pair(n_qps=1, flock_cfg=cfg)
        channel = handles[0].channels[0]
        granted = [cfg.credit_batch]

        original = channel.credits.on_grant

        def tracking(grant):
            granted[0] += grant.credits
            original(grant)

        channel.credits.on_grant = tracking

        def worker(tid):
            for _ in range(20):
                yield from clients[0].fl_call(handles[0], tid, 1, 64)

        for tid in range(3):
            sim.spawn(worker(tid))
        sim.run(until=10_000_000)
        sent = sum(ch.tcq.requests_sent for ch in handles[0].channels)
        assert sent <= granted[0]


class TestQpScheduling:
    def test_active_qps_capped_at_max_aqp(self):
        """23 handles x 16 QPs converge to <= MAX_AQP active (§5.1)."""
        cfg = FlockConfig(qps_per_handle=8, max_aqp=16,
                          sched_interval_ns=100_000.0,
                          thread_sched_interval_ns=100_000.0)
        sim, server, clients, handles = make_pair(n_clients=4, n_qps=8,
                                                  flock_cfg=cfg)

        def worker(cidx, tid):
            while True:
                yield from clients[cidx].fl_call(handles[cidx], tid, 1, 64)

        for cidx in range(4):
            for tid in range(8):
                sim.spawn(worker(cidx, tid))
        sim.run(until=1_500_000)
        # 4 senders, budget 16 -> 4 active QPs each after redistribution.
        assert server.server.total_active_qps <= 16 + 4
        assert server.server.redistributions >= 1
        done = sum(h.rpcs_completed for h in handles)
        assert done > 100  # traffic kept flowing through redistribution

    def test_idle_client_goes_dormant(self):
        cfg = FlockConfig(qps_per_handle=4, max_aqp=4,
                          sched_interval_ns=100_000.0)
        sim, server, clients, handles = make_pair(n_clients=2, n_qps=4,
                                                  flock_cfg=cfg)

        # Only client 0 sends.
        def worker(tid):
            while True:
                yield from clients[0].fl_call(handles[0], tid, 1, 64)

        for tid in range(4):
            sim.spawn(worker(tid))
        sim.run(until=1_000_000)
        active_busy = len(server.server.clients[handles[0].client_id].active_set)
        active_idle = len(server.server.clients[handles[1].client_id].active_set)
        assert active_idle == 1  # dormant senders keep exactly one QP
        assert active_busy >= active_idle

    def test_migration_preserves_all_responses(self):
        """Deactivating QPs mid-flight loses no requests (§5.2)."""
        cfg = FlockConfig(qps_per_handle=8, max_aqp=4, credit_batch=8,
                          credit_renew_threshold=4,
                          sched_interval_ns=80_000.0,
                          thread_sched_interval_ns=80_000.0)
        sim, server, clients, handles = make_pair(n_clients=2, n_qps=8,
                                                  flock_cfg=cfg)
        done = [0]
        n_workers = 2 * 8
        per_worker = 40

        def worker(cidx, tid):
            for i in range(per_worker):
                yield from clients[cidx].fl_call(handles[cidx], tid, 1, 64)
                done[0] += 1

        for cidx in range(2):
            for tid in range(8):
                sim.spawn(worker(cidx, tid))
        sim.run(until=30_000_000)
        assert done[0] == n_workers * per_worker
        assert server.server.redistributions >= 1


class TestManualDispatch:
    def test_recv_rpc_send_res_roundtrip(self):
        sim, server, clients, handles = make_pair()
        server.fl_reg_manual(7)
        out = []

        def server_app():
            token, request = yield from server.fl_recv_rpc()
            assert request.payload == "manual"
            yield from server.fl_send_res(token, request, 32,
                                          payload="manual-resp")

        def client_app():
            resp = yield from clients[0].fl_call(handles[0], 0, 7, 64,
                                                 "manual")
            out.append(resp.payload)

        sim.spawn(server_app())
        sim.spawn(client_app())
        sim.run(until=2_000_000)
        assert out == ["manual-resp"]


class TestPlumbing:
    def test_piggybacked_head_updates_sender_view(self):
        from repro.flock import coalesced_size

        sim, server, clients, handles = make_pair(n_qps=1)
        channel = handles[0].channels[0]

        def app():
            for _ in range(5):
                yield from clients[0].fl_call(handles[0], 0, 1, 64)

        sim.spawn(app())
        sim.run(until=2_000_000)
        # Serial single-thread calls: 5 one-entry messages, fully acked.
        assert channel.sender_view.cached_head_bytes == 5 * coalesced_size([64])
        assert channel.sender_view.in_flight_bytes == 0

    def test_selective_signaling_reduces_cqes(self):
        cfg_all = FlockConfig(qps_per_handle=1, signal_every=1)
        sim_a, server_a, clients_a, handles_a = make_pair(n_qps=1,
                                                          flock_cfg=cfg_all)

        def app(clients, handles):
            def run():
                for _ in range(32):
                    yield from clients[0].fl_call(handles[0], 0, 1, 64)
            return run

        sim_a.spawn(app(clients_a, handles_a)())
        sim_a.run(until=5_000_000)
        cqes_all = clients_a[0].node.rnic.cqes_generated

        cfg_some = FlockConfig(qps_per_handle=1, signal_every=16)
        sim_b, server_b, clients_b, handles_b = make_pair(n_qps=1,
                                                          flock_cfg=cfg_some)
        sim_b.spawn(app(clients_b, handles_b)())
        sim_b.run(until=5_000_000)
        cqes_some = clients_b[0].node.rnic.cqes_generated
        assert cqes_some < cqes_all

    def test_attach_mreg_registers_remote_region(self):
        sim, server, clients, handles = make_pair()
        region = clients[0].fl_attach_mreg(handles[0], 1 << 16)
        assert region.rkey in handles[0].attached_mrs
        assert server.node.memory.lookup(region.rkey) is region


class TestNoProcessPerOccurrence:
    """Leader tenures wake one parked process per QP; renewals, grant
    watchdogs and control writes run as plain event callbacks."""

    def test_spawns_per_run(self, monkeypatch):
        spawned = collections.Counter()
        tenures = [0]
        spawn, start_tenure = Simulator.spawn, FlockClient.start_tenure

        def counting_spawn(sim, gen, name="", detached=False):
            spawned[name] += 1
            return spawn(sim, gen, name, detached)

        def counting_start_tenure(client, handle, channel):
            tenures[0] += 1
            return start_tenure(client, handle, channel)

        monkeypatch.setattr(Simulator, "spawn", counting_spawn)
        monkeypatch.setattr(FlockClient, "start_tenure",
                            counting_start_tenure)
        # Few active QPs and a small credit batch: the run renews
        # credits, defers grants and redistributes the active set.
        cfg = FlockConfig(qps_per_handle=8, max_aqp=4, credit_batch=8,
                          credit_renew_threshold=4,
                          sched_interval_ns=80_000.0,
                          thread_sched_interval_ns=80_000.0)
        sim, server, clients, handles = make_pair(n_clients=2, n_qps=8,
                                                  flock_cfg=cfg)

        def worker(cidx, tid):
            for _ in range(20):
                yield from clients[cidx].fl_call(handles[cidx], tid, 1, 64)

        for cidx in range(2):
            for tid in range(8):
                sim.spawn(worker(cidx, tid))
        sim.run(until=30_000_000)
        assert server.server.renewals_handled > 0
        assert server.server.redistributions >= 1
        n_channels = sum(len(h.channels) for h in handles)
        assert 0 < spawned["flock-leader"] <= n_channels
        assert tenures[0] > spawned["flock-leader"]
        for name in ("flock-renew", "grant-watchdog", "active-set"):
            assert spawned[name] == 0
