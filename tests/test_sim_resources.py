"""Resources, stores, token buckets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (Resource, SimulationError, Simulator, Store,
                       TokenBucket, TrackedStore)
from repro.verbs import CompletionQueue

from conftest import run_gen


class TestResource:
    def test_immediate_acquire_under_capacity(self, sim):
        res = Resource(sim, capacity=2)
        assert res.acquire().triggered
        assert res.acquire().triggered
        assert res.in_use == 2

    def test_waiters_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def proc(tag, hold):
            yield res.acquire()
            order.append(tag)
            yield sim.timeout(hold)
            res.release()

        sim.spawn(proc("a", 10))
        sim.spawn(proc("b", 10))
        sim.spawn(proc("c", 10))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_idle_rejected(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_bad_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    @given(st.integers(min_value=1, max_value=5),
           st.lists(st.integers(min_value=1, max_value=20),
                    min_size=1, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_capacity(self, capacity, hold_times):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        max_seen = [0]

        def proc(hold):
            yield res.acquire()
            max_seen[0] = max(max_seen[0], res.in_use)
            yield sim.timeout(hold)
            res.release()

        for hold in hold_times:
            sim.spawn(proc(hold))
        sim.run()
        assert max_seen[0] <= capacity
        assert res.in_use == 0


class TestStore:
    def test_put_get_fifo(self, sim):
        store = Store(sim)

        def producer():
            for i in range(5):
                assert store.try_put(i)
                yield sim.timeout(1)

        def consumer():
            out = []
            for _ in range(5):
                item = yield store.get()
                out.append(item)
            return out

        sim.spawn(producer())
        assert run_gen(sim, consumer()) == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        def producer():
            yield sim.timeout(42)
            store.try_put("late")

        sim.spawn(producer())
        assert run_gen(sim, consumer()) == ("late", 42)

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)

    def test_try_get_empty(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None

    def test_direct_handoff_to_waiter(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return item

        p = sim.spawn(consumer())
        sim.run()  # consumer parks
        store.try_put("direct")
        sim.run()
        assert p.value == "direct"

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_bad_capacity(self, sim, capacity):
        with pytest.raises(ValueError):
            Store(sim, capacity=capacity)

    def test_fresh_store_holds_no_deque(self, sim):
        store = Store(sim)
        assert store.items is None
        assert store._getters is None
        assert len(store) == 0
        assert store.try_get() == (False, None)
        assert store.items is None  # a failed get queues nothing

    def test_queues_created_on_first_use(self, sim):
        store = Store(sim, capacity=1)
        store.get()
        assert len(store._getters) == 1 and store.items is None
        store.try_put("handed")  # straight to the parked getter
        assert store.items is None
        store.try_put("queued")
        assert not store.try_put("refused")
        assert list(store.items) == ["queued"]

    def test_uninstrumented_cq_is_a_plain_store(self, sim):
        assert type(CompletionQueue(sim)._store) is Store
        tracked = TrackedStore(sim)
        assert tracked.arrivals is not None and len(tracked.arrivals) == 0
        assert tracked in sim.components
        tracked.try_put("x")
        assert len(tracked.arrivals) == 1 and tracked.accepted == 1
        sim.instrumented = True
        assert type(CompletionQueue(sim)._store) is TrackedStore

    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_fifo_property(self, items):
        sim = Simulator()
        store = Store(sim)
        for item in items:
            store.try_put(item)
        out = []

        def consumer():
            for _ in items:
                got = yield store.get()
                out.append(got)

        sim.spawn(consumer())
        sim.run()
        assert out == items


class TestTokenBucket:
    def test_burst_then_rate_limited(self, sim):
        bucket = TokenBucket(sim, rate_per_ns=0.001, burst=2)  # 1 per µs
        assert bucket.delay_for() == 0
        assert bucket.delay_for() == 0
        delay = bucket.delay_for()
        assert delay == pytest.approx(1000.0)

    def test_refills_over_time(self, sim):
        bucket = TokenBucket(sim, rate_per_ns=0.01, burst=1)
        assert bucket.delay_for() == 0

        def proc():
            yield sim.timeout(100)  # exactly one token refilled
            return bucket.delay_for()

        assert run_gen(sim, proc()) == pytest.approx(0.0)

    def test_sustained_rate(self, sim):
        rate = 0.005  # 5 ops/µs
        bucket = TokenBucket(sim, rate_per_ns=rate, burst=1)
        done = [0]

        def proc():
            for _ in range(100):
                delay = bucket.delay_for()
                if delay:
                    yield sim.timeout(delay)
                done[0] += 1

        sim.spawn(proc())
        sim.run()
        # 100 ops at 5 ops/µs should take ~20 µs of virtual time.
        assert sim.now == pytest.approx(100 / 0.005, rel=0.05)

    def test_rejects_bad_rate(self, sim):
        with pytest.raises(ValueError):
            TokenBucket(sim, rate_per_ns=0)
