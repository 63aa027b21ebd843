"""HydraList-like in-memory ordered index (paper §8.6).

HydraList (Mathew & Min, VLDB'20) splits an ordered index into a **data
list** of fat nodes and a replicated **search layer** that is updated
*asynchronously*: structural changes (node splits) are queued and merged
into the search layer in the background, so lookups may traverse one or
two extra links until the layer catches up.  We implement that design
for real — a linked list of sorted data nodes plus a search layer array
rebuilt lazily from a pending-splits queue — because the eval's
characteristic behaviour (scan cost ≫ get cost, variable service times)
comes from the structure.

The CPU cost model returned by :meth:`get_cost_ns`/:meth:`scan_cost_ns`
feeds the RPC handlers in the Figs. 16-18 experiments.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Optional, Tuple

__all__ = ["HydraList"]

#: Cost model (ns) for handler charging.
GET_BASE_NS = 150.0
GET_PER_LEVEL_NS = 6.0
SCAN_BASE_NS = 260.0
SCAN_PER_KEY_NS = 7.0


class _DataNode:
    """A fat leaf: sorted keys with parallel values, plus a next link."""

    __slots__ = ("keys", "values", "next")

    def __init__(self):
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.next: Optional["_DataNode"] = None

    @property
    def min_key(self):
        return self.keys[0] if self.keys else None


class HydraList:
    """Ordered map with an asynchronously maintained search layer."""

    def __init__(self, node_capacity: int = 64):
        if node_capacity < 2:
            raise ValueError("node capacity must be >= 2")
        self.node_capacity = node_capacity
        head = _DataNode()
        self._head = head
        #: Search layer: sorted (min_key, node) arrays, possibly stale.
        self._layer_keys: List[Any] = []
        self._layer_nodes: List[_DataNode] = [head]
        #: Structural updates not yet merged into the search layer —
        #: HydraList's asynchronous-update mechanism.
        self._pending_splits: List[_DataNode] = []
        self.size = 0
        self.stale_traversals = 0

    # -- search layer -----------------------------------------------------

    def _locate(self, key: Any) -> _DataNode:
        """Find the data node that should hold ``key``; chases next links
        past any splits the search layer has not absorbed yet."""
        if self._layer_keys:
            idx = bisect.bisect_right(self._layer_keys, key)
            node = self._layer_nodes[idx]
        else:
            node = self._layer_nodes[0]
        nxt = node.next
        while nxt is not None:
            if not nxt.keys:
                # Emptied by removals: it separates nothing, look past it.
                nxt = nxt.next
            elif nxt.keys[0] <= key:
                node = nxt
                nxt = node.next
                self.stale_traversals += 1
            else:
                break
        return node

    def merge_search_layer(self) -> int:
        """Apply all pending structural updates (the background updater
        thread's job in HydraList).  Returns how many were merged."""
        if not self._pending_splits:
            return 0
        merged = len(self._pending_splits)
        for node in self._pending_splits:
            if not node.keys:
                # Emptied before the merge: no separator to publish, and
                # ``_locate`` never lands on it.
                continue
            idx = bisect.bisect_left(self._layer_keys, node.min_key)
            self._layer_keys.insert(idx, node.min_key)
            self._layer_nodes.insert(idx + 1, node)
        self._pending_splits = []
        return merged

    @property
    def pending_structural_updates(self) -> int:
        return len(self._pending_splits)

    # -- operations ----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        node = self._locate(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.values[idx] = value
            return
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self.size += 1
        if len(node.keys) > self.node_capacity:
            self._split(node)

    def _split(self, node: _DataNode) -> None:
        half = len(node.keys) // 2
        sibling = _DataNode()
        sibling.keys = node.keys[half:]
        sibling.values = node.values[half:]
        node.keys = node.keys[:half]
        node.values = node.values[:half]
        sibling.next = node.next
        node.next = sibling
        # The split is visible through next-links immediately; the search
        # layer learns about it asynchronously.
        self._pending_splits.append(sibling)
        # Bound staleness like the real updater thread does.
        if len(self._pending_splits) >= 128:
            self.merge_search_layer()

    def get(self, key: Any) -> Optional[Any]:
        node = self._locate(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def remove(self, key: Any) -> bool:
        node = self._locate(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            del node.keys[idx]
            del node.values[idx]
            self.size -= 1
            return True
        return False

    def scan(self, start_key: Any, count: int) -> List[Tuple[Any, Any]]:
        """Up to ``count`` (key, value) pairs with key >= start_key."""
        if count < 0:
            raise ValueError("negative scan count")
        out: List[Tuple[Any, Any]] = []
        node: Optional[_DataNode] = self._locate(start_key)
        idx = bisect.bisect_left(node.keys, start_key)
        while node is not None and len(out) < count:
            while idx < len(node.keys) and len(out) < count:
                out.append((node.keys[idx], node.values[idx]))
                idx += 1
            node = node.next
            idx = 0
        return out

    def items(self):
        node: Optional[_DataNode] = self._head
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next

    def bulk_load(self, pairs) -> None:
        """Fast sorted bootstrap for large experiment populations."""
        node = self._head
        for key, value in pairs:
            if node.keys and key <= node.keys[-1]:
                self.insert(key, value)
                continue
            if len(node.keys) >= self.node_capacity:
                sibling = _DataNode()
                sibling.next = node.next
                node.next = sibling
                self._pending_splits.append(sibling)
                node = sibling
            node.keys.append(key)
            node.values.append(value)
            self.size += 1
        self.merge_search_layer()

    # -- cost model for RPC handlers --------------------------------------------

    def get_cost_ns(self) -> float:
        levels = max(1, len(self._layer_keys).bit_length())
        return GET_BASE_NS + GET_PER_LEVEL_NS * levels

    def scan_cost_ns(self, count: int) -> float:
        levels = max(1, len(self._layer_keys).bit_length())
        return SCAN_BASE_NS + GET_PER_LEVEL_NS * levels + SCAN_PER_KEY_NS * count
