"""Request/response ring buffers (paper §4.1, Fig. 4/5).

Each FLock QP has a request ring on the receiver and a response ring on
the sender, both living inside registered memory regions so peers can
RDMA-write into them.  A ring is a contiguous **byte** buffer: a
coalesced message occupies its wire size, so large payloads consume ring
space proportionally — the mechanism behind head-of-line pressure when
small- and large-payload threads share a QP (§5.2).

The receiver polls its ring for new coalesced messages and advances
``Head`` as it consumes them; the sender tracks free space with a locally
cached copy of Head that is refreshed by values piggybacked on responses
(§4.1) — it (almost) never needs an RDMA read.  A sender that finds the
ring full parks until a fresher Head arrives.

In the simulator the ring's data plane is the memory region's *sink*: an
RDMA write whose destination falls in the region enqueues the message
object; the receiving dispatcher drains it.  Overflow is a hard error —
the credit scheme plus the sender-side space check must make it
unreachable.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..hw.memory import MemoryRegion
from ..sim import Event, Simulator, Store

__all__ = ["RingBuffer", "RingOverflow", "SenderView"]


class RingOverflow(Exception):
    """An RDMA write landed in a full ring: flow control failed."""


class RingBuffer:
    """One direction's ring: a sink-backed byte queue with head/tail."""

    def __init__(self, sim: Simulator, region: MemoryRegion, slots: int,
                 capacity_bytes: Optional[int] = None, name: str = "ring"):
        if slots < 1:
            raise ValueError("ring needs at least one slot")
        self.sim = sim
        self.region = region
        self.slots = slots
        self.capacity_bytes = capacity_bytes or region.length
        self.name = name
        #: Consumer position (messages / bytes consumed so far).
        self.head = 0
        self.head_bytes = 0
        #: Producer position (messages / bytes written so far).
        self.tail = 0
        self.tail_bytes = 0
        self.messages = Store(sim)
        #: Called with each arriving message (before queueing) — used by
        #: servers to route messages into a worker inbox instead.
        self.on_message: Optional[Callable] = None
        region.sink = self._sink

    # -- producer (remote) side -------------------------------------------

    def _sink(self, payload, addr: int, length: int) -> None:
        if (self.tail - self.head >= self.slots
                or self.tail_bytes - self.head_bytes + length
                > self.capacity_bytes):
            raise RingOverflow(
                "%s overflow: msgs %d/%d bytes %d+%d/%d"
                % (self.name, self.tail - self.head, self.slots,
                   self.tail_bytes - self.head_bytes, length,
                   self.capacity_bytes)
            )
        self.tail += 1
        self.tail_bytes += length
        if self.on_message is not None:
            self.on_message(payload)
        else:
            self.messages.try_put(payload)

    # -- consumer (local) side ----------------------------------------------

    def consume(self, nbytes: int = 0) -> None:
        """Advance Head after a message of ``nbytes`` has been decoded."""
        if self.head >= self.tail:
            raise RingOverflow("%s: consume past tail" % self.name)
        self.head += 1
        self.head_bytes += nbytes
        if self.head_bytes > self.tail_bytes:
            raise RingOverflow("%s: consumed more bytes than written"
                               % self.name)


class SenderView:
    """The sender's bookkeeping for a remote ring (§4.1).

    Tracks in-flight *bytes* against the ring capacity using the locally
    cached remote Head.  ``observe_head`` is called when a response
    piggybacks the receiver's updated byte Head; a leader that finds the
    ring full parks on :meth:`wait_for_space` until a fresher Head
    arrives — the paper's "sender ensures that there is free space on
    the receiver's ring buffer" check.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.sent_bytes = 0
        self.cached_head_bytes = 0
        self.messages_sent = 0
        self.rdma_reads_for_head = 0
        self._waiters: List[Event] = []

    @property
    def in_flight_bytes(self) -> int:
        return self.sent_bytes - self.cached_head_bytes

    def has_space(self, nbytes: int = 1) -> bool:
        return self.in_flight_bytes + nbytes <= self.capacity_bytes

    def available_bytes(self) -> int:
        return self.capacity_bytes - self.in_flight_bytes

    def allocate(self, nbytes: int) -> int:
        """Claim ``nbytes`` of ring space; returns the message index."""
        if not self.has_space(nbytes):
            raise RingOverflow(
                "sender view out of ring space (%d in flight + %d > %d)"
                % (self.in_flight_bytes, nbytes, self.capacity_bytes))
        self.sent_bytes += nbytes
        msg_id = self.messages_sent
        self.messages_sent += 1
        return msg_id

    def wait_for_space(self, sim: Simulator, nbytes: int = 1) -> Event:
        """Event firing once the cached Head shows ``nbytes`` free."""
        ev = Event(sim)
        if self.has_space(nbytes):
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def observe_head(self, head_bytes: Optional[int]) -> None:
        if head_bytes is not None and head_bytes > self.cached_head_bytes:
            self.cached_head_bytes = head_bytes
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()
