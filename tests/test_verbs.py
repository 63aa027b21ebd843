"""Verbs layer: Table 1 semantics, QP behaviour, CQs, completions."""

import gc
import sys
import tracemalloc

import pytest

from repro.config import ClusterConfig, NicConfig
from repro.hw import PcieLink
from repro.net import build_cluster
from repro.flock import CombiningQueue, CreditState
from repro.sim import Resource, Simulator, TrackedStore
from repro.verbs import (
    Completion,
    CompletionQueue,
    QueuePair,
    Transport,
    Verb,
    VerbError,
    WcStatus,
    WorkRequest,
    capability_table,
    max_message_size,
    supports,
)

from sim_helpers import run_gen


class TestTransportMatrix:
    """Paper Table 1, verbatim."""

    def test_rc_supports_everything(self):
        for verb in Verb:
            assert supports(Transport.RC, verb)

    def test_uc_no_read_no_atomic(self):
        assert not supports(Transport.UC, Verb.READ)
        assert not supports(Transport.UC, Verb.FETCH_ADD)
        assert not supports(Transport.UC, Verb.CMP_SWAP)
        assert supports(Transport.UC, Verb.WRITE)
        assert supports(Transport.UC, Verb.SEND)

    def test_ud_send_recv_only(self):
        assert supports(Transport.UD, Verb.SEND)
        assert supports(Transport.UD, Verb.RECV)
        for verb in (Verb.WRITE, Verb.WRITE_IMM, Verb.READ,
                     Verb.FETCH_ADD, Verb.CMP_SWAP):
            assert not supports(Transport.UD, verb)

    def test_mtu_limits(self):
        assert max_message_size(Transport.RC) == 2 * 1024 ** 3
        assert max_message_size(Transport.UC) == 2 * 1024 ** 3
        assert max_message_size(Transport.UD) == 4096

    def test_reliability_column(self):
        assert Transport.RC.reliable
        assert not Transport.UC.reliable
        assert not Transport.UD.reliable

    def test_connectedness(self):
        assert Transport.RC.connected and Transport.UC.connected
        assert not Transport.UD.connected

    def test_capability_table_shape(self):
        table = capability_table()
        assert set(table) == {"RC", "UC", "UD"}
        assert table["RC"]["atomic"] and not table["UD"]["atomic"]
        assert table["UD"]["max_msg"] == 4096


@pytest.fixture
def rc_pair(small_cluster):
    sim, server, clients, fabric = small_cluster
    sqp = QueuePair(sim, server, fabric, Transport.RC)
    cqp = QueuePair(sim, clients[0], fabric, Transport.RC)
    cqp.connect(sqp)
    return sim, server, clients[0], fabric, cqp, sqp


class TestConnection:
    def test_ud_connect_rejected(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        a = QueuePair(sim, clients[0], fabric, Transport.UD)
        b = QueuePair(sim, server, fabric, Transport.UD)
        with pytest.raises(VerbError):
            a.connect(b)

    def test_transport_mismatch_rejected(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        a = QueuePair(sim, clients[0], fabric, Transport.RC)
        b = QueuePair(sim, server, fabric, Transport.UC)
        with pytest.raises(VerbError):
            a.connect(b)

    def test_double_connect_rejected(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        other = QueuePair(sim, server, fabric, Transport.RC)
        with pytest.raises(VerbError):
            cqp.connect(other)

    def test_send_without_connection_rejected(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        qp = QueuePair(sim, clients[0], fabric, Transport.RC)
        with pytest.raises(VerbError):
            qp.post_send(WorkRequest(verb=Verb.SEND, length=8))


class TestSendRecv:
    def test_send_delivers_payload(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        sqp.post_recv(4096, n=1)

        def proc():
            wc = yield cqp.post_send(WorkRequest(verb=Verb.SEND, length=64,
                                                 payload={"k": 1}))
            return wc

        wc = run_gen(sim, proc())
        assert wc.ok
        rx = sqp.recv_cq.poll()
        assert len(rx) == 1
        assert rx[0].payload == {"k": 1}
        assert rx[0].src == (client.name, cqp.qpn)

    def test_rc_send_waits_for_recv_buffer(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        done_at = []

        def sender():
            yield cqp.post_send(WorkRequest(verb=Verb.SEND, length=64))
            done_at.append(sim.now)

        def receiver():
            yield sim.timeout(50_000)
            sqp.post_recv(4096)

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run()
        assert done_at and done_at[0] >= 50_000  # RNR-blocked until posted

    def test_ud_drop_without_recv_buffer(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        src = QueuePair(sim, clients[0], fabric, Transport.UD)
        dst = QueuePair(sim, server, fabric, Transport.UD)

        def proc():
            wc = yield src.post_send(
                WorkRequest(verb=Verb.SEND, length=64), remote=dst)
            return wc

        wc = run_gen(sim, proc())
        assert wc.ok  # UD sender never learns
        assert dst.recv_drops == 1
        assert len(dst.recv_cq) == 0

    def test_ud_size_limit(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        src = QueuePair(sim, clients[0], fabric, Transport.UD)
        dst = QueuePair(sim, server, fabric, Transport.UD)
        with pytest.raises(VerbError):
            src.post_send(WorkRequest(verb=Verb.SEND, length=8192),
                          remote=dst)

    def test_ud_requires_remote(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        src = QueuePair(sim, clients[0], fabric, Transport.UD)
        with pytest.raises(VerbError):
            src.post_send(WorkRequest(verb=Verb.SEND, length=64))

    def test_unsupported_verb_rejected(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        src = QueuePair(sim, clients[0], fabric, Transport.UD)
        dst = QueuePair(sim, server, fabric, Transport.UD)
        with pytest.raises(VerbError):
            src.post_send(WorkRequest(verb=Verb.READ, length=8), remote=dst)

    def test_post_send_of_recv_fails_at_the_call(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        with pytest.raises(VerbError, match="cannot post recv"):
            cqp.post_send(WorkRequest(verb=Verb.RECV, length=8))
        assert cqp.sends_posted == 0
        sim.run()  # nothing was spawned to fail later


class TestOneSided:
    def test_write_hits_sink(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)
        landed = []
        region.sink = lambda payload, addr, length: landed.append(
            (payload, addr, length))

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=128, remote_addr=region.addr,
                rkey=region.rkey, payload="data"))
            return wc

        wc = run_gen(sim, proc())
        assert wc.ok
        assert landed == [("data", region.addr, 128)]

    def test_write_out_of_bounds_fails(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(64)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=128, remote_addr=region.addr,
                rkey=region.rkey))
            return wc

        wc = run_gen(sim, proc())
        assert not wc.ok
        assert wc.status == WcStatus.REM_ACCESS_ERR

    def test_write_permission_enforced(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096, remote_write=False)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=8, remote_addr=region.addr,
                rkey=region.rkey))
            return wc

        assert not run_gen(sim, proc()).ok

    def test_write_imm_raises_remote_completion(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE_IMM, length=16, remote_addr=region.addr,
                rkey=region.rkey, imm=0xBEEF, payload="ctl"))
            return wc

        assert run_gen(sim, proc()).ok
        rx = sqp.recv_cq.poll()
        assert len(rx) == 1
        assert rx[0].imm == 0xBEEF and rx[0].payload == "ctl"

    def test_read_returns_word(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)
        region.words[region.addr + 16] = 777

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.READ, length=8, remote_addr=region.addr + 16,
                rkey=region.rkey))
            return wc

        wc = run_gen(sim, proc())
        assert wc.ok and wc.payload == 777

    def test_read_permission_enforced(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(64, remote_read=False)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.READ, length=8, remote_addr=region.addr,
                rkey=region.rkey))
            return wc

        assert not run_gen(sim, proc()).ok

    def test_read_has_full_rtt_latency(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)

        def proc():
            yield cqp.post_send(WorkRequest(
                verb=Verb.READ, length=8, remote_addr=region.addr,
                rkey=region.rkey))
            return sim.now

        elapsed = run_gen(sim, proc())
        one_way = fabric.cfg.propagation_ns
        assert elapsed >= 2 * one_way


class TestAtomics:
    def test_fetch_add_sequence(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)
        olds = []

        def proc():
            for _ in range(3):
                wc = yield cqp.post_send(WorkRequest(
                    verb=Verb.FETCH_ADD, length=8, remote_addr=region.addr,
                    rkey=region.rkey, swap_or_add=10))
                olds.append(wc.payload)

        run_gen(sim, proc())
        assert olds == [0, 10, 20]
        assert region.words[region.addr] == 30

    def test_cmp_swap_success_and_failure(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)
        region.words[region.addr] = 5

        def proc():
            wc1 = yield cqp.post_send(WorkRequest(
                verb=Verb.CMP_SWAP, length=8, remote_addr=region.addr,
                rkey=region.rkey, compare=5, swap_or_add=9))
            wc2 = yield cqp.post_send(WorkRequest(
                verb=Verb.CMP_SWAP, length=8, remote_addr=region.addr,
                rkey=region.rkey, compare=5, swap_or_add=100))
            return wc1.payload, wc2.payload

        old1, old2 = run_gen(sim, proc())
        assert old1 == 5      # swapped
        assert old2 == 9      # compare failed, returns current
        assert region.words[region.addr] == 9

    def test_concurrent_fetch_adds_never_lose_updates(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)

        def proc():
            wcs = []
            for _ in range(10):
                wcs.append(cqp.post_send(WorkRequest(
                    verb=Verb.FETCH_ADD, length=8, remote_addr=region.addr,
                    rkey=region.rkey, swap_or_add=1)))
            for wc_ev in wcs:
                yield wc_ev

        run_gen(sim, proc())
        assert region.words[region.addr] == 10

    def test_atomic_permission_enforced(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(64, remote_atomic=False)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.FETCH_ADD, length=8, remote_addr=region.addr,
                rkey=region.rkey, swap_or_add=1))
            return wc

        assert not run_gen(sim, proc()).ok


class TestSignaling:
    def test_unsignaled_generates_no_cqe(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)

        def proc():
            yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=8, remote_addr=region.addr,
                rkey=region.rkey, signaled=False))
            yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=8, remote_addr=region.addr,
                rkey=region.rkey, signaled=True))

        run_gen(sim, proc())
        assert len(cqp.send_cq) == 1  # only the signaled one

    def test_detached_write_returns_none_and_lands(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)
        landed = []
        region.sink = lambda payload, addr, length: landed.append(payload)
        assert cqp.post_send(WorkRequest(
            verb=Verb.WRITE, length=64, remote_addr=region.addr,
            rkey=region.rkey, payload="data", signaled=False),
            wait=False) is None
        sim.run()
        assert landed == ["data"]
        assert cqp.sends_completed == 1
        assert len(cqp.send_cq) == 0

    @staticmethod
    def _signaled_write_cqe_time(wait):
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim, ClusterConfig())
        sqp = QueuePair(sim, servers[0], fabric, Transport.RC)
        cqp = QueuePair(sim, clients[0], fabric, Transport.RC)
        cqp.connect(sqp)
        region = servers[0].memory.register(4096)
        cqp.post_send(WorkRequest(
            verb=Verb.WRITE, length=64, remote_addr=region.addr,
            rkey=region.rkey, signaled=True), wait=wait)

        def reaper():
            wc = yield cqp.send_cq.wait_pop()
            return wc, sim.now

        return run_gen(sim, reaper())

    def test_detached_signaled_write_pushes_cqe_at_ack(self):
        waited_wc, waited_t = self._signaled_write_cqe_time(wait=True)
        detached_wc, detached_t = self._signaled_write_cqe_time(wait=False)
        assert detached_wc.ok and waited_wc.ok
        assert detached_t == waited_t > 0


class TestQueuePairFootprint:
    """A QP that has done no work holds no queue: its CQs and receive
    buffers create their deques on first use, and its CQs are built on
    first use (Fig. 2a builds thousands of QPs, most of which never
    queue anything and never signal)."""

    def test_idle_qp_holds_no_deque(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        for qp in (cqp, sqp):
            cq_stores = (qp.send_cq._store, qp.recv_cq._store)
            for store in cq_stores + (qp.recv_buffers,):
                assert store.items is None
                assert store._getters is None
            assert not any(isinstance(store, TrackedStore)
                           for store in cq_stores)
            assert len(qp.send_cq) == 0 and len(qp.recv_buffers) == 0

    def test_connected_rc_pair_costs_under_1_kib(self, small_cluster):
        sim, server, clients, fabric = small_cluster
        n = 1000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairs = []
            for _ in range(n):
                a = QueuePair(sim, clients[0], fabric, Transport.RC)
                b = QueuePair(sim, server, fabric, Transport.RC)
                a.connect(b)
                pairs.append((a, b))
            per_pair = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_pair <= 1024, per_pair

    @staticmethod
    def _cqs(sim):
        return [c for c in sim.components if isinstance(c, CompletionQueue)]

    def test_unsignaled_one_sided_work_builds_no_cq(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)

        def proc():
            for verb in (Verb.READ, Verb.WRITE):
                wc = yield cqp.post_send(WorkRequest(
                    verb=verb, length=8, remote_addr=region.addr,
                    rkey=region.rkey, signaled=False))
                assert wc.ok

        run_gen(sim, proc())
        assert cqp.sends_completed == 2
        assert self._cqs(sim) == []

    def test_signaled_wr_builds_its_send_cq_once(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)

        def proc():
            for _ in range(2):
                yield cqp.post_send(WorkRequest(
                    verb=Verb.WRITE, length=8, remote_addr=region.addr,
                    rkey=region.rkey, signaled=True))

        run_gen(sim, proc())
        [cq] = self._cqs(sim)
        assert cqp.send_cq is cq and cq.pushed == 2

    def test_a_recv_cq_passed_in_is_the_one_that_receives(
            self, small_cluster):
        sim, server, clients, fabric = small_cluster
        shared = CompletionQueue(sim, name="shared")
        sqp = QueuePair(sim, server, fabric, Transport.RC, recv_cq=shared)
        cqp = QueuePair(sim, clients[0], fabric, Transport.RC)
        cqp.connect(sqp)
        region = server.memory.register(4096)

        def proc():
            yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE_IMM, length=8, remote_addr=region.addr,
                rkey=region.rkey, imm=7, signaled=False))

        run_gen(sim, proc())
        assert sqp.recv_cq is shared
        assert [wc.imm for wc in shared.poll()] == [7]
        assert self._cqs(sim) == [shared]

    def test_posted_read_runs_in_its_verbs_own_frame(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        region = server.memory.register(4096)
        proc = cqp.post_send(WorkRequest(
            verb=Verb.READ, length=8, remote_addr=region.addr,
            rkey=region.rkey, signaled=False))
        assert proc.gen.gi_code is QueuePair._do_read.__code__
        sim.run()
        assert proc.value.ok

    def test_qp_has_no_instance_dict(self, rc_pair):
        sim, server, client, fabric, cqp, sqp = rc_pair
        assert not hasattr(cqp, "__dict__")

    @staticmethod
    def _thrashing_reads():
        """Post two unsignaled READs on each of 32 RC QPs whose NICs
        cache 4 QP contexts, and run to t=1 µs: every read is
        still outstanding, most stalled on a PCIe context fetch.
        Returns the verb processes and the bytes the posts and the run
        left allocated, per read."""
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim, ClusterConfig(
            n_clients=2, nic=NicConfig(qp_cache_entries=4)))
        region = servers[0].memory.register(4096)
        qps = []
        for _ in range(32):
            qp = QueuePair(sim, clients[0], fabric, Transport.RC)
            qp.connect(QueuePair(sim, servers[0], fabric, Transport.RC))
            qps.append(qp)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            procs = [qp.post_send(WorkRequest(
                verb=Verb.READ, length=16, remote_addr=region.addr,
                rkey=region.rkey, signaled=False))
                for qp in qps for _ in range(2)]
            sim.run(until=1000.0)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not any(proc.triggered for proc in procs)
        return procs, used / len(procs)

    def test_stalled_verb_chain_is_four_generators_deep(self):
        """verb -> ``transfer`` -> ``tx_process`` -> ``PcieLink.read``:
        the context lookup runs in ``tx_process``'s own frame."""
        procs, _ = self._thrashing_reads()
        stalled = 0
        for proc in procs:
            chain = [proc.gen]
            while chain[-1].gi_yieldfrom is not None:
                chain.append(chain[-1].gi_yieldfrom)
            assert len(chain) <= 4
            stalled += chain[-1].gi_code is PcieLink.read.__code__
        assert stalled > len(procs) // 2

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="byte bound measured on CPython 3.11")
    def test_outstanding_read_bytes(self):
        """An outstanding RC READ costs its work request, its process
        and a four-deep generator chain (2,052 B with the lookup's own
        generator and a cached ``gen.send``; 1,800 B without)."""
        _, per_read = self._thrashing_reads()
        assert per_read <= 1900, per_read


class TestWaiterFootprint:
    """A waiting process costs no list, and an idle wait queue no deque
    (``flock_coalesce`` holds thousands of each at once)."""

    def test_pending_event_with_one_waiter_holds_no_list(self, sim):
        ev = sim.event()
        assert ev.callbacks is None

        def waiter():
            yield ev

        proc = sim.spawn(waiter())
        sim.run()
        assert ev.callbacks is proc._cb

    def test_idle_wait_queues_hold_no_deque(self, sim):
        resource = Resource(sim)
        credits = CreditState(sim, batch=4, renew_threshold=2)
        tcq = CombiningQueue(max_combine=4)
        assert resource._waiters is None
        assert type(credits._waiters) is list and not credits._waiters
        assert type(tcq.pending) is list and not tcq.pending


class TestCompletionQueue:
    def test_poll_reaps_in_order(self, sim):
        cq = CompletionQueue(sim)
        for i in range(3):
            cq.push(Completion(wr_id=i, verb=Verb.SEND))
        wcs = cq.poll()
        assert [wc.wr_id for wc in wcs] == [0, 1, 2]

    def test_poll_respects_max_entries(self, sim):
        cq = CompletionQueue(sim)
        for i in range(5):
            cq.push(Completion(wr_id=i, verb=Verb.SEND))
        assert len(cq.poll(max_entries=2)) == 2
        assert len(cq) == 3

    def test_overflow_counted(self, sim):
        cq = CompletionQueue(sim, capacity=1)
        cq.push(Completion(wr_id=1, verb=Verb.SEND))
        cq.push(Completion(wr_id=2, verb=Verb.SEND))
        assert cq.pushed == 1 and cq.overflowed == 1

    def test_wait_pop(self, sim):
        cq = CompletionQueue(sim)

        def proc():
            wc = yield cq.wait_pop()
            return wc.wr_id

        p = sim.spawn(proc())
        cq.push(Completion(wr_id=9, verb=Verb.RECV))
        sim.run()
        assert p.value == 9

    def test_wr_defaults(self):
        wr = WorkRequest(verb=Verb.SEND, length=10)
        assert wr.signaled
        assert wr.wr_id > 0
        with pytest.raises(ValueError):
            WorkRequest(verb=Verb.SEND, length=-1)
