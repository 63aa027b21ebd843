"""Shared-resource primitives for the DES kernel.

These model contention: a CPU core, an RNIC processing unit, or a lock is a
:class:`Resource`; a completion queue or a ring of incoming messages is a
:class:`Store`.  All wait queues are strictly FIFO so simulations stay
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "SpinLock", "TokenBucket", "TrackedStore"]


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
                 "contended", "wait_ns")

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
        #: Cumulative contended-wait ns (only accumulated for traced
        #: acquires, i.e. when a span was passed in).
        self.wait_ns = 0.0

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
        """
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
            self.contended += 1
            if span is not None:
                t0 = self.sim.now
                resource = self.name or "resource"
                span.open(resource, t0)

                def _note(_ev: Event) -> None:
                    waited = self.sim.now - t0
                    if waited > 0:
                        self.wait_ns += waited
                    span.close(resource, self.sim.now)

                ev.add_callback(_note)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release of idle resource")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class SpinLock(Resource):
    """A mutex that also charges CPU time while waiting.

    Models FaRM-style spinlock QP sharing: a thread spin-waiting on a lock
    burns its core.  In the DES we do not model core stealing, so the
    "burn" shows up as serialization, which is the effect that matters.
    """

    __slots__ = ("contended_acquires", "total_acquires")

    def __init__(self, sim: Simulator):
        super().__init__(sim, capacity=1)
        self.contended_acquires = 0
        self.total_acquires = 0

    def acquire(self, span: Any = None) -> Event:
        self.total_acquires += 1
        if self._in_use >= self.capacity:
            self.contended_acquires += 1
        return super().acquire(span)


class Store:
    """An unbounded (or bounded) FIFO channel of items between processes.

    ``items``, ``_getters`` and ``_putters`` start as ``None`` and become
    deques on their first append: most stores in a run (a QP's receive
    buffers, its CQs) never hold anything, and an empty deque costs about
    760 bytes.  Every emptiness test is a truthiness test, so ``None``
    reads as empty.
    """

    __slots__ = ("sim", "capacity", "items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be None or >= 1")
        self.sim = sim
        self.capacity = capacity
        self.items: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Event]] = None
        self._putters: Optional[Deque[tuple]] = None

    def __len__(self) -> int:
        items = self.items
        return 0 if items is None else len(items)

    def put(self, item: Any) -> Event:
        """Event that fires once the item is in the store."""
        ev = self.sim.event()
        if self._getters:
            # Direct hand-off to the longest-waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed()
            return ev
        items = self.items
        if items is None:
            items = self.items = deque()
        if self.capacity is None or len(items) < self.capacity:
            items.append(item)
            ev.succeed()
        else:
            if self._putters is None:
                self._putters = deque()
            self._putters.append((ev, item))
        return ev

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
        """Event that fires with the next item."""
        ev = self.sim.event()
        items = self.items
        if items:
            item = items.popleft()
            if self._putters:
                put_ev, put_item = self._putters.popleft()
                items.append(put_item)
                put_ev.succeed()
            ev.succeed(item)
        else:
            if self._getters is None:
                self._getters = deque()
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        items = self.items
        if not items:
            return False, None
        item = items.popleft()
        if self._putters:
            put_ev, put_item = self._putters.popleft()
            items.append(put_item)
            put_ev.succeed()
        return True, item


class TrackedStore(Store):
    """A :class:`Store` that optionally keeps queueing-theory accounting.

    When ``track`` is True the store maintains, in addition to the FIFO
    itself:

    * ``accepted`` / ``reaped`` — items that entered / left the queue,
    * ``wait_ns`` — total time completed items spent queued,
    * ``area`` — the time integral of queue depth (``∫ L(t) dt``),
    * ``arrivals`` — entry timestamps of the items currently queued
      (``None`` when untracked).

    These give two *independent* accountings of the same queue: the area
    integral accumulates depth × elapsed-time at every mutation, while
    the per-item waits accumulate at departure.  Little's law ties them
    together exactly — ``area == wait_ns + Σ residual waits`` — which the
    end-of-run auditors verify per queue (CQs, server worker inboxes).

    Items handed directly to a blocked getter never occupy the queue:
    they count as accepted and reaped with zero wait.  Tracking is off by
    default and the untracked paths delegate straight to :class:`Store`,
    so telemetry-off runs pay nothing for it.
    """

    __slots__ = ("track", "name", "accepted", "reaped", "wait_ns", "area",
                 "arrivals", "_area_t")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 track: bool = False, name: str = ""):
        super().__init__(sim, capacity)
        self.track = track
        self.name = name
        self.accepted = 0
        self.reaped = 0
        self.wait_ns = 0.0
        self.area = 0.0
        self.arrivals: Optional[Deque[float]] = deque() if track else None
        self._area_t = sim.now
        if track:
            # Surface the queue to the end-of-run auditors.
            sim.register_component(self)

    # -- accounting helpers ---------------------------------------------

    def _tick(self) -> None:
        """Integrate depth over the interval since the last mutation."""
        now = self.sim.now
        if now > self._area_t:
            self.area += len(self) * (now - self._area_t)
            self._area_t = now

    def _sync_arrivals(self) -> None:
        """Stamp arrivals for items a queued putter just slid in."""
        while len(self.arrivals) < len(self):
            self.arrivals.append(self.sim.now)
            self.accepted += 1

    def _note_pop(self) -> None:
        self.wait_ns += self.sim.now - self.arrivals.popleft()
        self.reaped += 1

    def residual_wait_ns(self) -> float:
        """Total wait accumulated so far by items still queued."""
        now = self.sim.now
        return sum(now - t for t in self.arrivals)

    # -- tracked mutators ------------------------------------------------

    def put(self, item: Any) -> Event:
        if not self.track:
            return super().put(item)
        self._tick()
        handed = bool(self._getters)
        depth_before = len(self)
        ev = super().put(item)
        if handed:
            self.accepted += 1
            self.reaped += 1
        elif len(self) > depth_before:
            self.accepted += 1
            self.arrivals.append(self.sim.now)
        return ev

    def try_put(self, item: Any) -> bool:
        if not self.track:
            return super().try_put(item)
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
        if not self.track:
            return super().get()
        self._tick()
        had_item = bool(self.items)
        ev = super().get()
        if had_item:
            self._note_pop()
            self._sync_arrivals()
        return ev

    def try_get(self) -> tuple:
        if not self.track:
            return super().try_get()
        self._tick()
        ok, item = super().try_get()
        if ok:
            self._note_pop()
            self._sync_arrivals()
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
