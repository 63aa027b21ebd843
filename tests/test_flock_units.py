"""FLock building blocks: messages, rings, TCQ, credits, schedulers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flock import (
    CANARY_BYTES,
    HEADER_BYTES,
    META_BYTES,
    CoalescedMessage,
    CombiningQueue,
    CreditGrant,
    CreditState,
    PendingSend,
    RingBuffer,
    RingOverflow,
    RpcRequest,
    RpcResponse,
    SenderView,
    ThreadStats,
    UtilizationTable,
    assign_threads,
    coalesced_size,
    compute_allocation,
)
from repro.flock.thread_scheduler import ThreadStatSnapshot
from repro.hw import HostMemory
from repro.sim import Simulator


class TestMessageLayout:
    def test_sizes_exact(self):
        # header + (meta+data) * n + canary (Fig. 5).
        assert coalesced_size([]) == HEADER_BYTES + CANARY_BYTES
        assert coalesced_size([64]) == HEADER_BYTES + META_BYTES + 64 + CANARY_BYTES
        assert coalesced_size([64, 128]) == (HEADER_BYTES + CANARY_BYTES
                                             + 2 * META_BYTES + 192)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            coalesced_size([-1])
        with pytest.raises(ValueError):
            RpcRequest(thread_id=0, seq_id=0, rpc_id=0, size=-5)
        with pytest.raises(ValueError):
            RpcResponse(thread_id=0, seq_id=0, rpc_id=0, size=-5)

    def test_degree_is_at_least_one(self):
        assert CoalescedMessage().coalescing_degree == 1
        msg = CoalescedMessage(entries=[
            RpcRequest(thread_id=0, seq_id=0, rpc_id=0, size=64),
            RpcRequest(thread_id=1, seq_id=0, rpc_id=0, size=64),
        ])
        assert msg.coalescing_degree == 2

    @given(st.lists(st.integers(min_value=0, max_value=4096), max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_total_bytes_matches_formula(self, sizes):
        entries = [RpcRequest(thread_id=i, seq_id=i, rpc_id=0, size=s)
                   for i, s in enumerate(sizes)]
        msg = CoalescedMessage(entries=entries)
        expected = HEADER_BYTES + CANARY_BYTES + sum(META_BYTES + s
                                                     for s in sizes)
        assert msg.total_bytes == expected

    @given(st.lists(st.integers(min_value=0, max_value=512),
                    min_size=2, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_coalescing_saves_bytes(self, sizes):
        """One coalesced message is always smaller on the wire than N
        separate messages — the §4.2 bandwidth argument."""
        combined = coalesced_size(sizes)
        separate = sum(coalesced_size([s]) for s in sizes)
        assert combined < separate


class TestRingBuffer:
    def make(self, slots=4):
        sim = Simulator()
        mem = HostMemory()
        region = mem.register(64 * 1024)
        ring = RingBuffer(sim, region, slots)
        return sim, region, ring

    def test_sink_enqueues(self):
        sim, region, ring = self.make()
        region.sink("msg1", region.addr, 64)
        assert ring.tail - ring.head == 1
        ok, msg = ring.messages.try_get()
        assert ok and msg == "msg1"

    def test_consume_advances_head(self):
        sim, region, ring = self.make()
        region.sink("m", region.addr, 8)
        ring.consume()
        assert ring.head == ring.tail == 1

    def test_consume_past_tail_rejected(self):
        sim, region, ring = self.make()
        with pytest.raises(RingOverflow):
            ring.consume()

    def test_overflow_raises(self):
        sim, region, ring = self.make(slots=2)
        region.sink("a", region.addr, 8)
        region.sink("b", region.addr, 8)
        with pytest.raises(RingOverflow):
            region.sink("c", region.addr, 8)

    def test_on_message_routing(self):
        sim, region, ring = self.make()
        routed = []
        ring.on_message = routed.append
        region.sink("x", region.addr, 8)
        assert routed == ["x"]
        assert len(ring.messages) == 0


class TestSenderView:
    def test_space_accounting_in_bytes(self):
        view = SenderView(capacity_bytes=256)
        assert view.has_space(128)
        view.allocate(128)
        view.allocate(128)
        assert not view.has_space(1)
        with pytest.raises(RingOverflow):
            view.allocate(1)

    def test_large_messages_consume_more(self):
        """The Fig. 5 ring is a byte buffer: one 1 KB message displaces
        many 64 B ones — the head-of-line mechanism of §5.2."""
        small = SenderView(capacity_bytes=4096)
        for _ in range(30):
            small.allocate(112)
        assert small.has_space(112)
        big = SenderView(capacity_bytes=4096)
        for _ in range(3):
            big.allocate(1100)
        assert not big.has_space(1100)

    def test_observe_head_frees_space(self):
        view = SenderView(capacity_bytes=100)
        view.allocate(100)
        view.observe_head(100)
        assert view.has_space(100)
        assert view.in_flight_bytes == 0

    def test_stale_head_ignored(self):
        view = SenderView(capacity_bytes=1000)
        view.allocate(500)
        view.observe_head(400)
        view.observe_head(100)  # stale
        assert view.cached_head_bytes == 400

    def test_wait_for_space_fires_on_head_advance(self):
        sim = Simulator()
        view = SenderView(capacity_bytes=100)
        view.allocate(100)
        ev = view.wait_for_space(sim, 50)
        assert not ev.triggered
        view.observe_head(60)
        assert ev.triggered

    def test_wait_for_space_immediate_when_free(self):
        sim = Simulator()
        view = SenderView(capacity_bytes=100)
        ev = view.wait_for_space(sim, 10)
        assert ev.triggered

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SenderView(capacity_bytes=0)


class TestCombiningQueue:
    def slot(self, thread_id=0):
        return PendingSend(RpcRequest(thread_id=thread_id, seq_id=0,
                                      rpc_id=0, size=64), 0.0)

    def test_first_enqueue_is_leader(self):
        tcq = CombiningQueue(max_combine=4)
        assert tcq.enqueue(self.slot(0)) is True
        assert tcq.enqueue(self.slot(1)) is False  # follower

    def queue(self, n):
        tcq = CombiningQueue(max_combine=8)
        for i in range(n):
            tcq.enqueue(self.slot(i))
        return tcq

    def test_collect_bounded(self):
        tcq = self.queue(5)
        batch = tcq.collect(2, credits=8, byte_budget=4096)
        assert len(batch) == 2
        assert all(s.copied for s in batch)
        assert len(tcq.pending) == 3

    def test_collect_stops_at_credits(self):
        tcq = self.queue(5)
        batch = tcq.collect(8, credits=3, byte_budget=4096)
        assert [s.request.thread_id for s in batch] == [0, 1, 2]
        assert not any(s.copied for s in tcq.pending)

    def test_collect_stops_at_byte_budget(self):
        tcq = self.queue(5)
        two = coalesced_size([64, 64])
        assert len(tcq.collect(8, credits=8, byte_budget=two)) == 2
        # A lone request goes even when it alone outgrows the budget.
        assert len(tcq.collect(8, credits=8, byte_budget=0)) == 1
        assert len(tcq.pending) == 2

    @given(st.lists(st.one_of(st.none(), st.integers(1, 512)),
                    max_size=12),
           st.integers(1, 10), st.integers(0, 10), st.integers(0, 2048))
    @settings(max_examples=60, deadline=None)
    def test_collect_takes_the_longest_fitting_prefix(
            self, sizes, limit, credits, budget):
        """``None`` is a memory operation, which carries no ring entry;
        an int is an RPC request of that many bytes."""
        tcq = CombiningQueue(max_combine=8)
        slots = [PendingSend(
            "read" if size is None else RpcRequest(
                thread_id=i, seq_id=0, rpc_id=0, size=size), 0.0)
            for i, size in enumerate(sizes)]
        for slot in slots:
            tcq.enqueue(slot)
        taken, n_rpc, wire = 0, 0, coalesced_size([])
        for size in sizes:
            if taken == limit:
                break
            if size is not None:
                entry = META_BYTES + size
                if n_rpc >= credits or (n_rpc and wire + entry > budget):
                    break
                wire += entry
                n_rpc += 1
            taken += 1
        batch = tcq.collect(limit, credits=credits, byte_budget=budget)
        assert batch == slots[:taken]
        assert tcq.pending == slots[taken:]
        assert all(s.copied for s in batch)
        assert not any(s.copied for s in tcq.pending)

    def test_handoff_continues_while_pending(self):
        tcq = CombiningQueue(max_combine=8)
        tcq.enqueue(self.slot(0))
        tcq.enqueue(self.slot(1))
        tcq.collect(8, credits=8, byte_budget=4096)
        assert tcq.handoff() is False  # queue drained
        assert not tcq.leader_active

    def test_handoff_passes_leadership(self):
        tcq = CombiningQueue(max_combine=1)
        tcq.enqueue(self.slot(0))
        tcq.enqueue(self.slot(1))
        tcq.collect(1, credits=8, byte_budget=4096)
        assert tcq.handoff() is True
        assert tcq.leader_active

    def test_median_degree_reporting(self):
        tcq = CombiningQueue(max_combine=8)
        for degree in (1, 3, 5):
            tcq.record_message(degree)
        assert tcq.median_degree() == 3
        # Report resets the window.
        assert tcq.median_degree() == 1

    def test_mean_degree(self):
        tcq = CombiningQueue(max_combine=8)
        tcq.record_message(2)
        tcq.record_message(4)
        # The ledgers the handle's mean coalescing degree divides.
        assert tcq.requests_sent / tcq.messages_sent == 3.0

    def test_bad_max_combine(self):
        with pytest.raises(ValueError):
            CombiningQueue(max_combine=0)


class TestCreditState:
    def make(self, batch=32, threshold=16):
        return Simulator(), CreditState(Simulator(), batch, threshold)

    def test_bootstrap_credits(self):
        sim = Simulator()
        credits = CreditState(sim, 32, 16)
        assert credits.credits == 32
        assert credits.try_consume(32)
        assert not credits.try_consume(1)

    def test_renewal_at_half(self):
        sim = Simulator()
        credits = CreditState(sim, 32, 16)
        credits.try_consume(15)
        assert not credits.needs_renewal()
        credits.try_consume(1)
        assert credits.needs_renewal()
        credits.mark_renewal_sent()
        assert not credits.needs_renewal()  # one outstanding at a time

    def test_grant_tops_up_and_wakes(self):
        sim = Simulator()
        credits = CreditState(sim, 32, 16)
        credits.try_consume(32)
        ev = credits.wait_for_credits()
        credits.on_grant(CreditGrant(qp_index=0, credits=32))
        sim.run()
        assert ev.triggered
        assert credits.credits == 32
        assert credits.grants_received == 1

    def test_decline_deactivates(self):
        sim = Simulator()
        credits = CreditState(sim, 32, 16)
        credits.mark_renewal_sent()
        credits.on_grant(CreditGrant(qp_index=0, credits=0))
        assert not credits.active
        assert credits.declines_received == 1
        assert not credits.needs_renewal()

    def test_reactivate(self):
        sim = Simulator()
        credits = CreditState(sim, 32, 16)
        credits.deactivate()
        credits.reactivate(32)
        assert credits.active and credits.credits >= 32

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CreditState(sim, 0, 0)
        with pytest.raises(ValueError):
            CreditState(sim, 8, 9)


class TestQpSchedulerMath:
    def test_report_accumulates(self):
        table = UtilizationTable()
        table.report(0, 1, 2)
        table.report(0, 1, 3)
        table.report(0, 2, 1)
        assert table.per_client() == {0: 6.0}
        assert table.qp_utilization(0) == {1: 5.0, 2: 1.0}

    def test_degree_below_one_rejected(self):
        table = UtilizationTable()
        with pytest.raises(ValueError):
            table.report(0, 0, 0)

    def test_reset(self):
        table = UtilizationTable()
        table.report(0, 0, 4)
        table.reset()
        assert table.per_client() == {0: 0.0}

    def test_allocation_proportional(self):
        alloc = compute_allocation({0: 30.0, 1: 10.0}, max_aqp=40,
                                   qps_per_client={0: 64, 1: 64})
        assert alloc[0] == 30 and alloc[1] == 10

    def test_dormant_gets_one(self):
        alloc = compute_allocation({0: 10.0, 1: 0.0}, max_aqp=16,
                                   qps_per_client={0: 8, 1: 8})
        assert alloc[1] == 1
        assert alloc[0] == 8  # capped at owned QPs

    def test_everyone_dormant(self):
        alloc = compute_allocation({0: 0.0, 1: 0.0}, max_aqp=16,
                                   qps_per_client={0: 4, 1: 4})
        assert alloc == {0: 1, 1: 1}

    def test_minimum_one_even_when_budget_tiny(self):
        alloc = compute_allocation({i: 1.0 for i in range(100)}, max_aqp=10,
                                   qps_per_client={i: 4 for i in range(100)})
        assert all(v == 1 for v in alloc.values())

    def test_bad_max_aqp(self):
        with pytest.raises(ValueError):
            compute_allocation({}, 0, {})

    @given(st.dictionaries(st.integers(min_value=0, max_value=20),
                           st.floats(min_value=0, max_value=1000,
                                     allow_nan=False),
                           min_size=1, max_size=20),
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=50, deadline=None)
    def test_allocation_invariants(self, utilization, max_aqp):
        caps = {cid: 16 for cid in utilization}
        alloc = compute_allocation(utilization, max_aqp, caps)
        assert set(alloc) == set(utilization)
        for cid, n in alloc.items():
            assert 1 <= n <= caps[cid]
            # No sender exceeds its proportional share by more than the
            # min-1-QP guarantee.
            assert n <= max(1, max_aqp)


class TestThreadSchedulerMath:
    def snap(self, tid, median, requests, nbytes):
        return ThreadStatSnapshot(thread_id=tid, median_size=median,
                                  requests=requests, bytes_sent=nbytes)

    def test_all_threads_assigned_to_active_qps(self):
        snaps = [self.snap(i, 64, 100, 6400) for i in range(10)]
        mapping = assign_threads(snaps, active_qps=[3, 5])
        assert set(mapping) == set(range(10))
        assert set(mapping.values()) <= {3, 5}

    def test_small_and_large_separated(self):
        """Algorithm 1's purpose: size-sorted assignment clusters the
        large-payload threads on their own QPs once the small threads
        have consumed a full byte quota."""
        smalls = [self.snap(i, 64, 1000, 100_000) for i in range(8)]
        larges = [self.snap(8, 4096, 100, 400_000),
                  self.snap(9, 4096, 100, 400_000)]
        mapping = assign_threads(smalls + larges, active_qps=[0, 1])
        assert {mapping[i] for i in range(8)} == {0}
        assert mapping[8] == 1 and mapping[9] == 1

    def test_sorted_by_size_then_count(self):
        """Large threads are always assigned after small ones, so they
        occupy the tail QPs and never interleave between small threads."""
        snaps = [self.snap(0, 1024, 10, 10240),
                 self.snap(1, 64, 10, 640),
                 self.snap(2, 64, 5, 320)]
        mapping = assign_threads(snaps, active_qps=[0, 1, 2])
        # Sorted order is (64,5), (64,10), (1024,10): the large thread's
        # QP index is >= every small thread's QP index.
        assert mapping[0] >= mapping[1] >= mapping[2]

    def test_load_balanced_by_bytes(self):
        snaps = [self.snap(i, 64, 10, 1000) for i in range(8)]
        mapping = assign_threads(snaps, active_qps=[0, 1])
        from collections import Counter
        counts = Counter(mapping.values())
        assert counts[0] == counts[1] == 4

    def test_new_threads_random_but_valid(self):
        snaps = [self.snap(i, 0, 0, 0) for i in range(5)]
        mapping = assign_threads(snaps, active_qps=[7, 8],
                                 rng=random.Random(1))
        assert set(mapping) == set(range(5))
        assert set(mapping.values()) <= {7, 8}

    def test_no_active_qps_rejected(self):
        with pytest.raises(ValueError):
            assign_threads([], active_qps=[])

    def test_stats_accumulate_and_reset(self):
        stats = ThreadStats(3)
        stats.record(64)
        stats.record(128)
        snap = stats.snapshot_and_reset()
        assert snap.requests == 2
        assert snap.bytes_sent == 192
        assert snap.median_size == 96
        assert stats.requests == 0 and not stats.sizes

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=4096),
                              st.integers(min_value=1, max_value=1000)),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_assignment_total_and_valid(self, thread_specs, n_qps):
        snaps = [self.snap(i, median, count, median * count)
                 for i, (median, count) in enumerate(thread_specs)]
        qps = list(range(n_qps))
        mapping = assign_threads(snaps, qps)
        assert set(mapping) == set(range(len(thread_specs)))
        assert set(mapping.values()) <= set(qps)
