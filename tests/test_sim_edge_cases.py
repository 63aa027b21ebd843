"""Kernel edge cases beyond the basic suite."""

import pytest

from repro.sim import SimulationError, Store

from conftest import run_gen


class TestConditionFailures:
    def test_any_of_with_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()

        def proc():
            result = yield sim.any_of([done, sim.timeout(50)])
            return result[done]

        assert run_gen(sim, proc()) == "early"


class TestStoreEdges:
    def test_multiple_getters_fifo(self, sim):
        store = Store(sim)
        order = []

        def getter(tag):
            item = yield store.get()
            order.append((tag, item))

        for tag in "abc":
            sim.spawn(getter(tag))
        sim.run()
        for item in (1, 2, 3):
            store.try_put(item)
        sim.run()
        assert order == [("a", 1), ("b", 2), ("c", 3)]


class TestClockEdges:
    def test_events_at_identical_times_fire_in_creation_order(self, sim):
        order = []
        for tag in range(5):
            ev = sim.timeout(100)
            ev.add_callback(lambda e, tag=tag: order.append(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_into_past_rejected(self, sim):
        sim.run(until=100)
        with pytest.raises(ValueError):
            sim.timeout(-10)
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_zero_duration_run(self, sim):
        sim.run(until=0)
        assert sim.now == 0
