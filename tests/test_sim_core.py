"""DES kernel: events, timeouts, processes, conditions, determinism."""

import collections
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Resource,
    SimulationError,
    Simulator,
    Store,
)

from conftest import run_gen
from repro.harness import MicrobenchConfig, run_flock
from repro.obs import Telemetry
from test_run_lifecycle import RUNNERS


def step_all(sim):
    """Drain the schedule one ``step()`` at a time, which takes no
    in-place path."""
    while sim.step():
        pass


#: The garbage check's extra case: ``run_flock`` with its own telemetry,
#: under the auditors.
TRACED_FLOCK = "run_flock traced+audited"


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_advances_clock(self, sim):
        def proc():
            yield sim.timeout(125)
            return sim.now

        assert run_gen(sim, proc()) == 125

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    @pytest.mark.parametrize("form", ["sleep", "timeout"])
    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_delay_not_at_least_zero_rejected(self, sim, form, delay):
        # ``delay < 0`` is false for NaN, so a check written that way lets
        # a NaN sleep onto the ready deque: it sleeps 0 ns.
        with pytest.raises(ValueError, match=r"delay must be >= 0, got %r"
                           % delay):
            getattr(sim, form)(delay)
        assert not sim._ready and not sim._heap

    def test_timeout_value(self, sim):
        def proc():
            got = yield sim.timeout(5, value="tick")
            return got

        assert run_gen(sim, proc()) == "tick"

    def test_zero_delay_fires_in_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(0)
            order.append(tag)

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert order == ["a", "b"]


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return 7

        assert run_gen(sim, proc()) == 7

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(50)
            return "child-done"

        def parent():
            result = yield sim.spawn(child())
            return (result, sim.now)

        assert run_gen(sim, parent()) == ("child-done", 50)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(42)

    def test_bad_yield_rejected(self, sim):
        def proc():
            yield "not an event"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_triggered_once_finished(self, sim):
        def proc():
            yield sim.timeout(10)

        p = sim.spawn(proc())
        assert not p.triggered
        sim.run()
        assert p.triggered

    def test_exception_propagates_in_strict_mode(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        sim.spawn(proc())
        with pytest.raises(RuntimeError):
            sim.run()


class TestDetachedProcess:
    @staticmethod
    def _run(detached):
        sim = Simulator()

        def proc():
            yield sim.timeout(10)
            yield sim.timeout(5)
            return "done"

        p = sim.spawn(proc(), detached=detached)
        # step() queues every completion (run() may fire a plain one in
        # place), so the dispatch a detached process saves shows.
        step_all(sim)
        return sim, p

    def test_runs_to_completion_and_keeps_value(self):
        sim, p = self._run(detached=True)
        assert sim.now == 15
        assert p.triggered
        assert p.callbacks is None and p.value == "done"

    def test_completion_fires_no_event(self):
        plain, _ = self._run(detached=False)
        detached, _ = self._run(detached=True)
        assert detached.events_processed == plain.events_processed - 1

    def test_waiter_is_rejected(self, sim):
        def child():
            yield sim.timeout(1)

        def parent():
            yield sim.spawn(child(), detached=True)

        sim.spawn(parent())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        sim.spawn(proc(), detached=True)
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()


class TestConditions:
    def test_any_of_first_wins(self, sim):
        def proc():
            fast = sim.timeout(10, value="fast")
            slow = sim.timeout(100, value="slow")
            result = yield sim.any_of([fast, slow])
            return (sim.now, list(result.values()))

        now, values = run_gen(sim, proc())
        assert now == 10
        assert values == ["fast"]

    def test_all_of_waits_for_all(self, sim):
        def proc():
            a = sim.timeout(10, value="a")
            b = sim.timeout(30, value="b")
            result = yield sim.all_of([a, b])
            return (sim.now, sorted(result.values()))

        now, values = run_gen(sim, proc())
        assert now == 30
        assert values == ["a", "b"]

    def test_empty_all_of_fires_immediately(self, sim):
        def proc():
            result = yield sim.all_of([])
            return result

        assert run_gen(sim, proc()) == {}


class TestRun:
    def test_run_until_advances_exactly(self, sim):
        sim.spawn((sim.timeout(10) for _ in range(1)))
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_past_rejected(self, sim):
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_events_processed_counter(self, sim):
        def proc():
            for _ in range(5):
                yield sim.timeout(1)

        sim.spawn(proc())
        sim.run()
        assert sim.events_processed >= 5


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_firing_order_is_time_sorted(self, delays):
        sim = Simulator()
        fired = []

        def proc(d):
            yield sim.timeout(d)
            fired.append((sim.now, d))

        for d in delays:
            sim.spawn(proc(d))
        sim.run()
        assert [d for _t, d in fired] == sorted(delays)
        assert fired == sorted(fired, key=lambda x: x[0])

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_identical_runs_produce_identical_traces(self, seed):
        import random

        def trace(seed):
            sim = Simulator()
            rng = random.Random(seed)
            out = []

            def proc(tag):
                for _ in range(5):
                    yield sim.timeout(rng.randrange(100))
                    out.append((tag, sim.now))

            for tag in range(4):
                sim.spawn(proc(tag))
            sim.run()
            return out

        assert trace(seed) == trace(seed)


class TestFastPathRegressions:
    """Pins for the kernel fast-path refactor: condition-callback
    detach, heap tie-breaking, and the ready-deque ordering rule."""

    def test_anyof_detaches_loser_callbacks(self, sim):
        """A long-lived event raced against many short ones must not
        accumulate one dead callback per race (satellite: callback list
        length is bounded)."""
        never = sim.event()

        def proc():
            for _ in range(50):
                yield sim.any_of([sim.timeout(1), never])
            return len(never.callbacks)

        assert run_gen(sim, proc()) <= 1

    def test_condition_decided_while_built_attaches_no_more(self, sim):
        """A constituent that has already fired can decide the condition
        while it is being built; the events after it must not get a dead
        callback."""
        fired = sim.event()
        fired.succeed("done")
        sim.run()
        pending = sim.event()
        won = sim.any_of([fired, pending])
        assert won.triggered
        assert pending.callbacks == []

    def test_heap_ties_never_compare_events(self, sim):
        """Same-time heap entries are ordered by sequence number alone;
        Event deliberately defines no ordering, so a tie that fell
        through to the event objects would raise TypeError."""
        with pytest.raises(TypeError):
            sim.event() < sim.event()

        order = []

        def waiter(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        # Five entries at the identical timestamp, spawned in order.
        for i in range(5):
            sim.spawn(waiter(i, 7.0))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_ready_deque_preserves_heap_first_order(self, sim):
        """A heap entry scheduled *before* the clock reached t must fire
        before any zero-delay event created *at* t — the invariant that
        lets ready-deque entries skip sequence numbers entirely."""
        order = []
        wake = sim.event()

        def first():
            yield sim.timeout(5.0)
            order.append("first")
            wake.succeed()  # zero-delay: goes on the ready deque

        def second():
            yield sim.timeout(5.0)  # same timestamp, pushed before t=5
            order.append("second")

        def third():
            yield wake
            order.append("third")

        sim.spawn(first())
        sim.spawn(second())
        sim.spawn(third())
        sim.run()
        assert order == ["first", "second", "third"]

    def test_tiny_delay_rounding_keeps_order(self, sim):
        """A positive delay that rounds to now (now + d == now) must
        still fire after already-queued same-time work, not dodge the
        ordering rule via a stale heap entry."""
        order = []

        def proc():
            base = 1e18
            yield sim.timeout(base)
            yield sim.timeout(1e-9)  # rounds to now at this magnitude
            order.append("rounded")

        def other():
            yield sim.timeout(1e18)
            order.append("peer")

        sim.spawn(proc())
        sim.spawn(other())
        sim.run()
        assert order == ["peer", "rounded"]


class TestSatisfiedWaitsRideTheHandoff:
    """An already-satisfied wait (a free ``Resource`` unit, a waiting
    ``Store`` item) is an event that ``succeed`` hands off: it skips its
    dispatch only when that dispatch would be the very next one.  Every
    other event keeps its place."""

    def test_lone_uncontended_acquire_and_get_skip_their_dispatch(self, sim):
        res, store = Resource(sim), Store(sim)
        store.try_put("item")

        def proc():
            yield res.acquire()
            got = yield store.get()
            res.release()
            return got

        assert run_gen(sim, proc()) == "item"
        # The kick-start; the two waits and the completion cost nothing.
        assert sim.events_processed == 1

    def test_acquire_behind_a_queued_ready_event_waits_its_turn(self, sim):
        res, order = Resource(sim), []
        wake = sim.event()

        def acquirer():
            wake.succeed()
            yield res.acquire()
            order.append("acquirer")

        def woken():
            yield wake
            order.append("woken")

        sim.spawn(woken())
        sim.run()
        sim.spawn(acquirer())
        sim.run()
        assert order == ["woken", "acquirer"]

    def test_acquire_behind_a_heap_entry_due_now_waits_its_turn(self, sim):
        res, order = Resource(sim), []

        def acquirer():
            yield sim.timeout(5.0)
            yield res.acquire()
            order.append("acquirer")

        def peer():
            yield sim.timeout(5.0)  # same instant, pushed second
            order.append("peer")

        sim.spawn(acquirer())
        sim.spawn(peer())
        sim.run()
        assert order == ["peer", "acquirer"]

    def test_first_of_two_waiters_does_not_run_ahead(self, sim):
        res, order = Resource(sim), []
        tick = sim.timeout(3.0)

        def first():
            yield tick
            yield res.acquire()
            order.append("first acquired")

        def second():
            yield tick
            order.append("second woke")

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        assert order == ["second woke", "first acquired"]

    @staticmethod
    def _not_yielded_at_once(sim, order):
        """Satisfied waits with work between the call and the yield: a
        ``Store.get`` inside ``any_of`` with a ``succeed`` after it, and
        an acquire with a callback and a ``succeed`` after it."""
        store, res = Store(sim), Resource(sim)
        store.try_put("item")
        other, wake = sim.event(), sim.event()

        def getter():
            yield sim.timeout(1.0)
            cond = sim.any_of([store.get(), sim.timeout(10.0)])
            other.succeed()
            got = yield cond
            order.append(("getter", sim.now, *got.values()))
            ev = res.acquire()
            ev.add_callback(lambda _ev: order.append(("callback", sim.now)))
            wake.succeed()
            order.append(("between", sim.now))
            yield ev
            order.append(("acquirer", sim.now))

        def waiter(ev, tag):
            yield ev
            order.append((tag, sim.now))

        sim.spawn(getter())
        sim.spawn(waiter(other, "other"))
        sim.spawn(waiter(wake, "woken"))

    def test_a_satisfied_wait_need_not_be_yielded_at_once(self):
        by_run, by_step = [], []
        plain = Simulator()
        self._not_yielded_at_once(plain, by_run)
        plain.run()
        stepped = Simulator()
        self._not_yielded_at_once(stepped, by_step)
        step_all(stepped)
        assert by_run == by_step == [
            ("other", 1.0), ("getter", 1.0, "item"), ("between", 1.0),
            ("callback", 1.0), ("acquirer", 1.0), ("woken", 1.0)]

    @staticmethod
    def _mixed(sim, order):
        """Satisfied and contended waits around a shared lock; returns
        the last process to finish."""
        lock, store = Resource(sim), Store(sim)

        def worker(tag, delay):
            yield sim.timeout(delay)
            for i in range(3):
                yield lock.acquire()
                order.append((sim.now, tag, "lock", i))
                yield sim.timeout(2.0)
                lock.release()
                store.try_put((tag, i))
                item = yield store.get()
                order.append((sim.now, tag, "got", item))

        procs = [sim.spawn(worker(t, d)) for t, d in
                 (("a", 1.0), ("b", 1.0), ("c", 4.0))]
        return procs[-1]

    def test_stepping_keeps_the_order_of_run(self):
        by_run, by_step = [], []
        plain = Simulator()
        self._mixed(plain, by_run)
        plain.run()
        stepped = Simulator()
        last = self._mixed(stepped, by_step)
        step_all(stepped)
        assert last.triggered
        assert by_step == by_run and len(by_run) == 18
        # step() never skips a dispatch; run() does.
        assert stepped.events_processed > plain.events_processed

    def test_long_chain_of_satisfied_waits_does_not_recurse(self, sim):
        res = Resource(sim)
        fired = sim.event()
        fired.succeed()
        sim.run()

        def proc():
            for _ in range(10_000):
                yield res.acquire()
                res.release()
                yield fired  # already processed: resumes in place too
            return "done"

        assert run_gen(sim, proc()) == "done"
        # ``fired`` and the kick-start; the acquires and the completion
        # are handed off.
        assert sim.events_processed == 2

    def test_step_queues_every_wait_after_a_run_raised(self, sim):
        def boom():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.spawn(boom())
        with pytest.raises(RuntimeError):
            sim.run()
        before = sim.events_processed
        res = Resource(sim)

        def proc():
            yield res.acquire()

        p = sim.spawn(proc())
        step_all(sim)
        assert p.triggered
        # The kick-start, the acquire and the completion.
        assert sim.events_processed - before == 3

    def test_profiled_run_dispatches_the_same_count(self):
        cfg = MicrobenchConfig(n_clients=2, threads_per_client=2,
                               warmup_ns=20_000.0, measure_ns=20_000.0)
        plain = run_flock(cfg)
        profiled = run_flock(cfg, profile=True)
        assert profiled.profile is not None
        assert profiled.host["events"] == plain.host["events"]
        assert profiled.ops == plain.ops


class TestInPlaceWakeups:
    """``Simulator.sleep`` and the hand-off: a sleep that would be the
    loop's very next dispatch, and would resume only what is already
    running, happens in place; the first zero-delay trigger of a last
    callback that would be that dispatch (a kick-start, a ``succeed``,
    a completion) is handed to the loop; every other one is queued."""

    def test_lone_sleeps_run_in_place(self, sim):
        seen = []

        def proc():
            for delay in (5.0, 2.5, 0.0):
                yield sim.sleep(delay)
                seen.append(sim.now)
            return "done"

        assert run_gen(sim, proc()) == "done"
        # The clock is right the moment each sleep returns.
        assert seen == [5.0, 7.5, 7.5]
        # The kick-start alone: three sleeps and the completion cost
        # nothing.
        assert sim.events_processed == 1

    def test_sleep_behind_a_queued_ready_event_waits_its_turn(self, sim):
        order = []
        wake = sim.event()

        def sleeper():
            wake.succeed()
            yield sim.sleep(4.0)
            order.append(("sleeper", sim.now))

        def woken():
            yield wake
            order.append(("woken", sim.now))

        sim.spawn(woken())
        sim.run()
        sim.spawn(sleeper())
        sim.run()
        assert order == [("woken", 0.0), ("sleeper", 4.0)]

    def test_sleep_ending_on_a_heap_tie_waits_its_turn(self, sim):
        order = []

        def peer():
            yield sim.timeout(5.0)  # pushed first: fires first at t=5
            order.append("peer")

        def sleeper():
            yield sim.sleep(5.0)
            order.append("sleeper")

        sim.spawn(peer())
        sim.spawn(sleeper())
        sim.run()
        assert order == ["peer", "sleeper"]

    def test_sleep_past_until_is_queued(self, sim):
        seen = []

        def proc():
            yield sim.sleep(4.0)
            seen.append(sim.now)
            yield sim.sleep(10.0)  # ends past until=8
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run(until=8.0)
        assert seen == [4.0] and sim.now == 8.0
        sim.run()
        assert seen == [4.0, 14.0]

    def test_step_queues_every_sleep_and_completion(self, sim):
        def proc():
            yield sim.sleep(3.0)
            yield sim.sleep(4.0)

        p = sim.spawn(proc())
        step_all(sim)
        assert p.triggered and sim.now == 7.0
        # The kick-start, two sleeps and the completion.
        assert sim.events_processed == 4

    @staticmethod
    def _fan_in(s, waiters, order):
        """A child sleeping 5 ns, and ``waiters`` processes waiting on it."""
        def child():
            yield s.sleep(5.0)
            order.append("child")
            return "v"

        def waiter(tag, proc):
            got = yield proc
            order.append((tag, got, s.now))

        proc = s.spawn(child())
        for tag in range(waiters):
            s.spawn(waiter(tag, proc))

    @pytest.mark.parametrize("waiters", [0, 1, 2])
    def test_completion_runs_in_place(self, sim, waiters):
        by_run, by_step = [], []
        self._fan_in(sim, waiters, by_run)
        sim.run()
        stepped = Simulator()
        self._fan_in(stepped, waiters, by_step)
        step_all(stepped)
        assert by_run == by_step == ["child"] + [
            (tag, "v", 5.0) for tag in range(waiters)]
        # step(): the kick-starts, the sleep and every completion.
        assert stepped.events_processed == 3 + 2 * waiters
        # run(): the child's completion runs in place, and so does its
        # sleep when no waiter's kick-start is queued behind it.  Of two
        # waiters, the first resumes with the flag clear, so its
        # completion is queued, and the second's is queued behind it.
        assert sim.events_processed == {0: 1, 1: 3, 2: 6}[waiters]

    def test_flag_marks_the_last_callback_only(self, sim):
        flags = []
        ev = sim.event()
        for _ in range(3):
            ev.callbacks.append(lambda _ev: flags.append(sim._last))
        ev.succeed()
        sim.run()
        assert flags == [False, False, True]

    def test_observer_in_front_of_the_waiter_keeps_the_cut(self, sim):
        """A traced acquire puts ``_note`` in front of the waiter's
        resume; the waiter's sleep after the hand-over still runs in
        place, as it does untraced."""
        def count(traced):
            s = Simulator()
            res = Resource(s)

            def holder():
                yield res.acquire()
                yield s.sleep(2.0)
                res.release()  # hands the unit to the waiter
                yield s.sleep(10.0)

            def waiter():
                yield s.sleep(1.0)
                span = s.spans.begin("w", "t", s.now) if traced else None
                yield res.acquire(span=span)
                yield s.sleep(3.0)
                res.release()

            s.spawn(holder())
            s.spawn(waiter())
            if traced:
                from repro.obs.span import SpanLog
                s.spans = SpanLog()
            s.run()
            assert s.now == 12.0
            return s.events_processed

        assert count(traced=True) == count(traced=False)

    def test_long_completion_chain_does_not_recurse(self, sim):
        def link(depth):
            if depth:
                return (yield sim.spawn(link(depth - 1)))
            yield sim.sleep(1.0)
            return "bottom"

        assert run_gen(sim, link(10_000)) == "bottom"
        assert sim.now == 1.0

    def test_timeout_is_always_queued(self, sim):
        """``timeout()`` keeps its behaviour for callers that do not
        yield it at once: a timed callback and an ``any_of`` race."""
        order = []

        def proc():
            timed = sim.timeout(2.0)
            assert timed.callbacks == []  # queued, not born fired
            timed.callbacks.append(lambda _ev: order.append(("cb", sim.now)))
            never = sim.event()
            race = sim.timeout(5.0, value="late")
            got = yield sim.any_of([never, race])
            order.append(("race", list(got.values()), sim.now))

        run_gen(sim, proc())
        assert order == [("cb", 2.0), ("race", ["late"], 5.0)]
        # The kick-start and both timeouts; the condition is handed
        # off by the race's timeout, and the completion by the
        # condition.
        assert sim.events_processed == 3

    def test_kick_start_costs_no_dispatch(self, sim):
        def child():
            yield sim.sleep(1.0)
            return "child"

        def parent():
            yield sim.sleep(2.0)
            return (yield sim.spawn(child()))

        assert run_gen(sim, parent()) == "child"
        assert sim.now == 3.0
        # The parent's kick-start alone: the child's kick-start and both
        # completions are handed off, and both sleeps run in place.
        assert sim.events_processed == 1

    @pytest.mark.parametrize("wake, dispatches", [("store", 3),
                                                  ("resource", 4)])
    def test_waking_a_waiter_costs_no_dispatch(self, sim, wake, dispatches):
        store, res, order = Store(sim), Resource(sim), []
        if wake == "resource":
            res.acquire()  # held from the start: one dispatch, no waiter

        def waiter():
            if wake == "store":
                got = yield store.get()
            else:
                yield res.acquire()
                got = "unit"
            order.append((got, sim.now))

        def waker():
            yield sim.timeout(1.0)
            if wake == "store":
                store.try_put("item")
            else:
                res.release()
            order.append(("woke", sim.now))

        sim.spawn(waiter())
        sim.spawn(waker(), detached=True)
        sim.run()
        got = "item" if wake == "store" else "unit"
        assert order == [("woke", 1.0), (got, 1.0)]
        # The kick-starts and the timeout (and the held unit's acquire):
        # the wake-up is handed off, and so is the waiter's completion.
        assert sim.events_processed == dispatches

    @staticmethod
    def _three_triggers(s, order, flags):
        """A process that triggers three events in one callback, then
        sleeps 0 ns."""
        evs = [s.event() for _ in range(3)]
        for i, ev in enumerate(evs):
            ev.callbacks.append(lambda _ev, i=i: order.append(i))

        def proc():
            yield s.timeout(1.0)
            for ev in evs:
                ev.succeed()
                flags.append(s._last)
            yield s.sleep(0.0)  # queued behind all three
            order.append("sleeper")

        s.spawn(proc())

    def test_only_the_first_trigger_is_handed_off(self, sim):
        by_run, by_step, flags = [], [], []
        self._three_triggers(sim, by_run, flags)
        sim.run()
        stepped = Simulator()
        self._three_triggers(stepped, by_step, [])
        step_all(stepped)
        assert by_run == by_step == [0, 1, 2, "sleeper"]
        # The flag is cleared by the first trigger, so the later ones
        # and the sleep are queued behind it.
        assert flags == [False, False, False]
        # The kick-start, the timeout, the two later triggers and the
        # sleep; the first trigger and the completion are handed off.
        assert sim.events_processed == 5
        assert stepped.events_processed == 7

    def test_trigger_behind_a_heap_entry_due_now_is_queued(self, sim):
        order = []
        ev = sim.event()
        ev.callbacks.append(lambda _ev: order.append("woken"))

        def trigger():
            yield sim.timeout(5.0)
            ev.succeed()

        def peer():
            yield sim.timeout(5.0)  # same instant, pushed second
            order.append("peer")

        sim.spawn(trigger())
        sim.spawn(peer())
        sim.run()
        assert order == ["peer", "woken"]

    def test_step_and_outside_a_run_queue_every_trigger(self, sim):
        def child():
            return "c"
            yield

        def parent():
            yield sim.timeout(1.0)
            return (yield sim.spawn(child()))

        p = sim.spawn(parent())
        # Outside a run: the kick-start is queued, not handed off.
        assert list(sim._ready) and sim._handoff is None
        step_all(sim)
        assert p.value == "c"
        # Both kick-starts, the timeout and both completions.
        assert sim.events_processed == 5

    def test_long_spawn_chain_does_not_recurse(self, sim):
        spawned = []

        def link(depth):
            spawned.append(depth)
            if depth:
                sim.spawn(link(depth - 1), detached=True)
            return
            yield

        sim.spawn(link(10_000), detached=True)
        sim.run()
        assert len(spawned) == 10_001 and spawned[-1] == 0
        # The first kick-start; every later one is handed off.
        assert sim.events_processed == 1

    @staticmethod
    def _mixed(s, order):
        """Kick-starts, store and resource wake-ups and completions."""
        store, lock = Store(s), Resource(s)

        def consumer(tag):
            for _ in range(3):
                item = yield store.get()
                yield lock.acquire()
                order.append((s.now, tag, item))
                yield s.sleep(1.0)
                lock.release()

        def producer():
            for tag in ("a", "b"):
                s.spawn(consumer(tag))
            for i in range(6):
                yield s.timeout(0.5)
                store.try_put(i)

        s.spawn(producer())

    def test_profiled_run_dispatches_the_same_count(self):
        class Tally:
            dispatches = 0

            def account(self, event, callbacks, dt_ns):
                self.dispatches += 1

        by_run, by_profiled = [], []
        plain, profiled = Simulator(), Simulator()
        self._mixed(plain, by_run)
        self._mixed(profiled, by_profiled)
        plain.run()
        tally = Tally()
        profiled.run_profiled(tally)
        assert by_profiled == by_run and len(by_run) == 6
        assert profiled.events_processed == plain.events_processed
        assert tally.dispatches == plain.events_processed

    @pytest.mark.parametrize("profiled", [False, True])
    def test_hand_off_survives_a_raising_callback(self, sim, profiled):
        order = []
        handed, queued = sim.event(), sim.event()
        handed.callbacks.append(lambda _ev: order.append("handed off"))
        queued.callbacks.append(lambda _ev: order.append("queued"))

        def proc():
            yield sim.timeout(1.0)
            handed.succeed()
            queued.succeed()
            raise RuntimeError("boom")

        class Tally:
            def account(self, event, callbacks, dt_ns):
                pass

        run = (lambda: sim.run_profiled(Tally())) if profiled else sim.run
        sim.spawn(proc())
        with pytest.raises(RuntimeError, match="boom"):
            run()
        assert order == [] and sim._handoff is None
        run()
        assert order == ["handed off", "queued"]


class TestGarbageDiscipline:
    """Pins for the kernel's acyclic per-event objects: the cached
    ``Process._cb`` refers back to its process, so it must be dropped when
    the process finishes, or every finished process is left for the
    cyclic garbage collector.  ``Run.run`` pauses that collector for the
    event loop, which is safe only while no loop makes a cycle."""

    def test_finished_processes_leave_no_cyclic_garbage(self):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim = Simulator()

            def short():
                yield sim.timeout(1)
                return "done"

            for _ in range(10_000):
                sim.spawn(short())
            sim.run()
            del sim
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("ending", ["return"])
    def test_terminal_paths_drop_the_resume_callback(self, ending):
        """A process ends only by returning (an exception aborts the
        run), and returning drops the resume callback."""
        sim = Simulator()

        def proc():
            yield sim.timeout(10)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.triggered and p.value == "done" and p._cb is None
        assert not sim._ready and not sim._heap

    @pytest.mark.parametrize("name", sorted(RUNNERS) + [TRACED_FLOCK])
    def test_run_loop_leaves_no_cyclic_garbage(self, name, monkeypatch,
                                               request):
        """``Run.run`` pauses the collector for the loop, so every cycle
        the loop makes is still uncollected when it returns.  A saving
        collection right after the loop must find none, for every runner
        and for a traced and audited FLock run."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        if name == TRACED_FLOCK:
            request.getfixturevalue("audited")
            call = lambda: run_flock(
                MicrobenchConfig(n_clients=2, threads_per_client=2),
                telemetry=Telemetry())
        else:
            call = RUNNERS[name]
        paused, garbage = [], []
        plain_run = Simulator.run

        def run(self, *args, **kwargs):
            gc.collect()
            try:
                return plain_run(self, *args, **kwargs)
            finally:
                paused.append(not gc.isenabled())
                flags, saved = gc.get_debug(), gc.garbage[:]
                del gc.garbage[:]
                gc.set_debug(gc.DEBUG_SAVEALL)
                try:
                    gc.collect()
                    garbage.extend(type(o).__name__ for o in gc.garbage)
                finally:
                    gc.set_debug(flags)
                    gc.garbage[:] = saved

        monkeypatch.setattr(Simulator, "run", run)
        call()
        assert paused and all(paused)
        assert not garbage, collections.Counter(garbage).most_common(5)
