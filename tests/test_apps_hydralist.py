"""HydraList: ordered index correctness + asynchronous search layer."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.hydralist import HydraList


class TestBasicOps:
    def test_insert_get(self):
        index = HydraList(node_capacity=4)
        index.insert(10, "a")
        index.insert(5, "b")
        assert index.get(10) == "a"
        assert index.get(5) == "b"
        assert index.get(7) is None
        assert index.size == 2

    def test_update_in_place(self):
        index = HydraList(node_capacity=4)
        index.insert(1, "old")
        index.insert(1, "new")
        assert index.get(1) == "new"
        assert index.size == 1

    def test_remove(self):
        index = HydraList(node_capacity=4)
        index.insert(1, "x")
        assert index.remove(1)
        assert not index.remove(1)
        assert index.get(1) is None
        assert index.size == 0

    def test_scan_ordered(self):
        index = HydraList(node_capacity=4)
        for key in [9, 3, 7, 1, 5]:
            index.insert(key, key * 10)
        assert index.scan(3, 3) == [(3, 30), (5, 50), (7, 70)]

    def test_scan_from_missing_start(self):
        index = HydraList(node_capacity=4)
        for key in [2, 4, 6]:
            index.insert(key, key)
        assert index.scan(3, 10) == [(4, 4), (6, 6)]

    def test_scan_spans_nodes(self):
        index = HydraList(node_capacity=2)
        for key in range(20):
            index.insert(key, key)
        result = index.scan(5, 8)
        assert result == [(k, k) for k in range(5, 13)]

    def test_scan_negative_count_rejected(self):
        index = HydraList()
        with pytest.raises(ValueError):
            index.scan(0, -1)

    def test_items_sorted(self):
        index = HydraList(node_capacity=3)
        keys = random.Random(1).sample(range(1000), 100)
        for key in keys:
            index.insert(key, key)
        out = [k for k, _v in index.items()]
        assert out == sorted(keys)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            HydraList(node_capacity=1)


class TestAsyncSearchLayer:
    def test_splits_queue_structural_updates(self):
        index = HydraList(node_capacity=2)
        for key in range(6):
            index.insert(key, key)
        assert index.pending_structural_updates > 0
        # Lookups remain correct before the merge, via next-link chasing.
        for key in range(6):
            assert index.get(key) == key
        assert index.stale_traversals > 0

    def test_merge_clears_pending(self):
        index = HydraList(node_capacity=2)
        for key in range(10):
            index.insert(key, key)
        merged = index.merge_search_layer()
        assert merged > 0
        assert index.pending_structural_updates == 0
        before = index.stale_traversals
        for key in range(10):
            assert index.get(key) == key
        assert index.stale_traversals == before  # layer is fresh

    def test_merge_skips_emptied_node(self):
        index = HydraList(node_capacity=3)
        for key in range(6):
            index.insert(key, key)
        index.remove(2)
        index.remove(3)
        index.merge_search_layer()
        for key in (2, 3, 4):
            index.insert(key, -key)
        assert index.size == 6
        assert list(index.items()) == [
            (0, 0), (1, 1), (2, -2), (3, -3), (4, -4), (5, 5)]

    def test_automatic_merge_bounds_staleness(self):
        index = HydraList(node_capacity=2)
        for key in range(600):
            index.insert(key, key)
        # The background-updater bound keeps the pending queue short.
        assert index.pending_structural_updates < 128

    def test_bulk_load(self):
        index = HydraList(node_capacity=8)
        index.bulk_load((k, k * 2) for k in range(500))
        assert index.size == 500
        assert index.get(250) == 500
        assert index.scan(0, 3) == [(0, 0), (1, 2), (2, 4)]
        assert index.pending_structural_updates == 0


class TestCostModel:
    def test_scan_costs_more_than_get(self):
        index = HydraList()
        index.bulk_load((k, k) for k in range(1000))
        assert index.scan_cost_ns(64) > index.get_cost_ns()

    def test_scan_cost_grows_with_range(self):
        index = HydraList()
        assert index.scan_cost_ns(128) > index.scan_cost_ns(16)

    def test_get_cost_grows_with_size(self):
        small = HydraList()
        small.bulk_load((k, k) for k in range(100))
        big = HydraList()
        big.bulk_load((k, k) for k in range(100_000))
        assert big.get_cost_ns() > small.get_cost_ns()


class TestAgainstReference:
    @given(st.lists(st.tuples(st.sampled_from(["ins", "del", "get"]),
                              st.integers(min_value=0, max_value=50)),
                    max_size=200))
    # Emptying a node between two others must not hide its successors:
    # this sequence once stored key 4 twice.
    @example([("ins", k) for k in range(6)]
             + [("del", 2), ("del", 3), ("ins", 4)])
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_reference(self, ops):
        index = HydraList(node_capacity=3)
        reference = {}
        for op, key in ops:
            if op == "ins":
                index.insert(key, key * 7)
                reference[key] = key * 7
            elif op == "del":
                assert index.remove(key) == (key in reference)
                reference.pop(key, None)
            else:
                assert index.get(key) == reference.get(key)
        assert index.size == len(reference)
        assert list(index.items()) == sorted(reference.items())

    @given(st.sets(st.integers(min_value=0, max_value=10_000),
                   min_size=1, max_size=300),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_scan_matches_sorted_reference(self, keys, start, count):
        index = HydraList(node_capacity=4)
        for key in keys:
            index.insert(key, key)
        expected = [(k, k) for k in sorted(keys) if k >= start][:count]
        assert index.scan(start, count) == expected
