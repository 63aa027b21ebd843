"""DES kernel: events, timeouts, processes, conditions, determinism."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)

from conftest import run_gen


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

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

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

    def test_fail_propagates_to_waiter(self, sim):
        ev = sim.event()

        def proc():
            with pytest.raises(ValueError):
                yield ev
            return "handled"

        p = sim.spawn(proc())
        ev.fail(ValueError("boom"))
        sim.run()
        assert p.value == "handled"


class TestTimeout:
    def test_advances_clock(self, sim):
        def proc():
            yield sim.timeout(125)
            return sim.now

        assert run_gen(sim, proc()) == 125

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

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

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(10)

        p = sim.spawn(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_exception_propagates_in_strict_mode(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        sim.spawn(proc())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_exception_captured_when_not_strict(self):
        sim = Simulator(strict=False)

        def proc():
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        p = sim.spawn(proc())
        sim.run()
        assert p.triggered and not p.ok


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, sim):
        def sleeper():
            try:
                yield sim.timeout(1000)
                return "slept"
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        p = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(10)
            p.interrupt(cause="wake up")

        sim.spawn(interrupter())
        sim.run()
        assert p.value == ("interrupted", "wake up", 10)

    def test_interrupt_finished_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.spawn(proc())
        sim.run()
        p.interrupt()  # must not raise

    def test_unhandled_interrupt_cancels(self, sim):
        def sleeper():
            yield sim.timeout(1000)
            return "never"

        p = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(5)
            p.interrupt()

        sim.spawn(interrupter())
        sim.run()
        assert p.processed and p.value is None


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

    def test_run_until_event_detects_deadlock(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_event(ev)

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

    def test_allof_detaches_on_failure(self, sim):
        """When one constituent fails, AllOf stops watching the rest."""
        pending = sim.event()

        def proc():
            doomed = sim.event()
            cond = sim.all_of([doomed, pending])
            doomed.fail(RuntimeError("boom"))
            try:
                yield cond
            except RuntimeError:
                pass
            return len(pending.callbacks)

        assert run_gen(sim, proc()) == 0

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


class TestGarbageDiscipline:
    """Pins for the kernel's acyclic per-event objects: the cached
    ``Process._cb`` refers back to its process, so it must be dropped when
    the process finishes, or every finished process is left for the
    cyclic garbage collector."""

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

    @pytest.mark.parametrize("ending", ["return", "interrupt", "fail"])
    def test_terminal_paths_drop_the_resume_callback(self, ending):
        sim = Simulator(strict=False)

        def proc():
            yield sim.timeout(10)
            if ending == "fail":
                raise RuntimeError("kaboom")

        p = sim.spawn(proc())
        if ending == "interrupt":
            sim.run(until=5)
            p.interrupt()
        sim.run()
        assert p.triggered and p._cb is None
        value_ok = p.ok
        p.interrupt()  # still a no-op: schedules nothing, raises nothing
        assert not sim._ready and not sim._heap
        sim.run()
        assert p.ok == value_ok and p._cb is None

    def test_flock_run_collects_nothing_inside_the_loop(self, monkeypatch):
        from repro.harness.microbench import MicrobenchConfig, run_flock

        in_run = [False]
        stats = {"collections": 0, "collected": 0}
        plain_run = Simulator.run

        def run(self, *args, **kwargs):
            in_run[0] = True
            try:
                return plain_run(self, *args, **kwargs)
            finally:
                in_run[0] = False

        def hook(phase, info):
            if phase == "stop" and in_run[0]:
                stats["collections"] += 1
                stats["collected"] += info["collected"]

        monkeypatch.setattr(Simulator, "run", run)
        gc.callbacks.append(hook)
        try:
            run_flock(MicrobenchConfig(n_clients=2, threads_per_client=4,
                                       outstanding=2, warmup_ns=20_000.0,
                                       measure_ns=20_000.0))
        finally:
            gc.callbacks.remove(hook)
        assert stats["collections"] > 0
        assert stats["collected"] == 0
