"""Property tests across the TCQ + credits + ring state machines."""

import random

from hypothesis import given, settings, strategies as st

from repro.flock import (
    CombiningQueue,
    CreditGrant,
    CreditState,
    PendingSend,
    RpcRequest,
    SenderView,
)
from repro.sim import Simulator


def slot(i):
    return PendingSend(RpcRequest(thread_id=i, seq_id=i, rpc_id=0, size=64),
                       0.0)


class TestTcqProperties:
    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_collect_until_empty_preserves_all_slots(self, max_combine, n):
        """Every enqueued slot is collected exactly once, in order."""
        tcq = CombiningQueue(max_combine)
        for i in range(n):
            tcq.enqueue(slot(i))
        seen = []
        while True:
            batch = tcq.collect(max_combine, max_combine, 1 << 20)
            if not batch:
                assert not tcq.handoff()
                break
            assert len(batch) <= max_combine
            seen.extend(s.request.thread_id for s in batch)
            tcq.handoff()
        assert seen == list(range(n))

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_exactly_one_leader_at_a_time(self, ops):
        """Random interleaving of enqueues and leader cycles never yields
        two concurrent leaders."""
        tcq = CombiningQueue(4)
        leaders = 0
        i = 0
        for do_enqueue in ops:
            if do_enqueue:
                if tcq.enqueue(slot(i)):
                    leaders += 1
                i += 1
                assert leaders <= 1
            elif leaders:
                tcq.collect(4, 4, 1 << 20)
                if not tcq.handoff():
                    leaders -= 1
        assert leaders in (0, 1)


class TestCreditProperties:
    @given(st.integers(min_value=1, max_value=64),
           st.lists(st.integers(min_value=1, max_value=8), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_credits_never_negative(self, batch, consumes):
        sim = Simulator()
        credits = CreditState(sim, batch, max(1, batch // 2))
        granted = batch
        consumed = 0
        for n in consumes:
            if credits.try_consume(n):
                consumed += n
            assert credits.credits >= 0
            if credits.needs_renewal():
                credits.mark_renewal_sent()
                credits.on_grant(CreditGrant(qp_index=0, credits=batch))
                granted += batch
        assert credits.credits == granted - consumed


class TestSenderViewProperties:
    @given(st.integers(min_value=64, max_value=65536),
           st.lists(st.integers(min_value=1, max_value=4096), max_size=200),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_inflight_invariants(self, capacity, sizes, seed):
        """Allocate when space allows, ack random prefixes: in-flight
        bytes stay within [0, capacity] and heads stay monotone."""
        rng = random.Random(seed)
        view = SenderView(capacity)
        sent = []
        for size in sizes:
            if view.has_space(size):
                view.allocate(size)
                sent.append(size)
            assert 0 <= view.in_flight_bytes <= view.capacity_bytes
            if sent and rng.random() < 0.4:
                # Receiver consumed a prefix; head observed via response.
                acked = sum(sent[:rng.randint(1, len(sent))])
                view.observe_head(acked)
                assert view.cached_head_bytes >= acked
            assert view.cached_head_bytes <= view.sent_bytes
