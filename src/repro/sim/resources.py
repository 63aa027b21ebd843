"""Shared-resource primitives for the DES kernel.

These model contention: a CPU core, an RNIC processing unit, or a lock is a
:class:`Resource`; a completion queue or a ring of incoming messages is a
:class:`Store`.  Every wait queue is first in, first out, so simulations
stay deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "TokenBucket", "TrackedStore"]


class Resource:
    """A counted resource with FIFO waiters (a semaphore).

    Usage from a process::

        yield resource.acquire()
        try:
            ...critical section...
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters",
                 "contended")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        #: Wait-edge resource label for causal attribution.
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Acquires that found the resource full (always counted).
        self.contended = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def acquire(self, span: Any = None) -> Event:
        """Event that fires once a unit of the resource is held.

        When contended and ``span`` is given, the wait is recorded on
        the span as an *open* interval named after the resource (see
        :meth:`repro.obs.span.Span.open`) and closed when the
        acquisition succeeds — so an acquirer still queued when the span
        is flushed at end of run keeps its in-flight wait.

        A free unit is held at once and the event is already triggered;
        when it would be the loop's next dispatch it is handed off
        (:meth:`Event.succeed`).
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return self.sim.event().succeed()
        ev = self.sim.event()
        self._waiters.append(ev)
        self.contended += 1
        if span is not None:
            resource = self.name or "resource"
            span.open(resource, self.sim.now)

            def _note(_ev: Event) -> None:
                span.close(resource, self.sim.now)

            ev.add_callback(_note)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release of idle resource")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """An unbounded (or bounded) FIFO channel of items between processes.

    Producers never block: :meth:`try_put` hands an item to the
    longest-waiting getter or queues it, and refuses it (returns False)
    when ``capacity`` items are already queued.  Consumers wait with
    :meth:`get` or poll with :meth:`try_get`.

    ``items`` and ``_getters`` start as ``None`` and become deques on
    their first append: most stores in a run (a QP's receive buffers,
    its CQs) never hold anything, and an empty deque costs about 760
    bytes.  Every emptiness test is a truthiness test, so ``None`` reads
    as empty.
    """

    __slots__ = ("sim", "capacity", "items", "_getters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be None or >= 1")
        self.sim = sim
        self.capacity = capacity
        self.items: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Event]] = None

    def __len__(self) -> int:
        items = self.items
        return 0 if items is None else len(items)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        items = self.items
        if items is None:
            items = self.items = deque()
        if self.capacity is None or len(items) < self.capacity:
            items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Event that fires with the next item.

        A waiting item is taken at once and the event is already
        triggered, as in :meth:`Resource.acquire`.
        """
        items = self.items
        if items:
            return self.sim.event().succeed(items.popleft())
        ev = self.sim.event()
        if self._getters is None:
            self._getters = deque()
        self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        items = self.items
        if not items:
            return False, None
        return True, items.popleft()


class TrackedStore(Store):
    """A :class:`Store` that keeps queueing-theory accounting.

    In addition to the FIFO itself, the store maintains:

    * ``accepted`` / ``reaped`` — items that entered / left the queue,
    * ``wait_ns`` — total time completed items spent queued,
    * ``area`` — the time integral of queue depth (``∫ L(t) dt``),
    * ``arrivals`` — entry timestamps of the items currently queued.

    These give two *independent* accountings of the same queue: the area
    integral accumulates depth × elapsed-time at every mutation, while
    the per-item waits accumulate at departure.  Little's law ties them
    together exactly — ``area == wait_ns + Σ residual waits`` — which the
    end-of-run auditors verify per queue (CQs, server worker inboxes).

    Items handed directly to a blocked getter never occupy the queue:
    they count as accepted and reaped with zero wait.  Only instrumented
    components build one; an uninstrumented queue is a plain
    :class:`Store` and pays nothing for the accounting.
    """

    __slots__ = ("name", "accepted", "reaped", "wait_ns", "area",
                 "arrivals", "_area_t")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        super().__init__(sim, capacity)
        self.name = name
        self.accepted = 0
        self.reaped = 0
        self.wait_ns = 0.0
        self.area = 0.0
        self.arrivals: Deque[float] = deque()
        self._area_t = sim.now
        # Surface the queue to the end-of-run auditors.
        sim.register_component(self)

    # -- accounting helpers ---------------------------------------------

    def _tick(self) -> None:
        """Integrate depth over the interval since the last mutation."""
        now = self.sim.now
        if now > self._area_t:
            self.area += len(self) * (now - self._area_t)
            self._area_t = now

    def _note_pop(self) -> None:
        self.wait_ns += self.sim.now - self.arrivals.popleft()
        self.reaped += 1

    def residual_wait_ns(self) -> float:
        """Total wait accumulated so far by items still queued."""
        now = self.sim.now
        return sum(now - t for t in self.arrivals)

    # -- tracked mutators ------------------------------------------------

    def try_put(self, item: Any) -> bool:
        self._tick()
        handed = bool(self._getters)
        ok = super().try_put(item)
        if ok:
            self.accepted += 1
            if handed:
                self.reaped += 1
            else:
                self.arrivals.append(self.sim.now)
        return ok

    def get(self) -> Event:
        self._tick()
        had_item = bool(self.items)
        ev = super().get()
        if had_item:
            self._note_pop()
        return ev

    def try_get(self) -> tuple:
        self._tick()
        ok, item = super().try_get()
        if ok:
            self._note_pop()
        return ok, item


class TokenBucket:
    """Rate limiter: ``rate`` tokens/ns with burst up to ``burst`` tokens.

    Used to model hardware message-rate ceilings (e.g. an RNIC's packet
    processing rate) without simulating every pipeline stage.
    """

    __slots__ = ("sim", "rate", "burst", "_tokens", "_last")

    def __init__(self, sim: Simulator, rate_per_ns: float, burst: float = 1.0):
        if rate_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate_per_ns
        self.burst = max(1.0, burst)
        self._tokens = self.burst
        self._last = 0.0

    def delay_for(self) -> float:
        """Consume one token and return the ns to wait before proceeding."""
        now = self.sim.now
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
        self._tokens -= 1.0
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate
