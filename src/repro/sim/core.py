"""Discrete-event simulation kernel.

This module is the foundation of the whole reproduction: every piece of
hardware (RNIC, CPU core, PCIe link), every network hop, and every
application thread is a process running in virtual time on top of this
kernel.  The design follows the classic event/process pattern (as in SimPy,
which is not available offline): scheduled events drive generator-based
processes that ``yield`` events to wait on them.

Time is measured in integer-friendly floats of **nanoseconds**.  All
ordering is deterministic: ties in time are broken by a monotonically
increasing sequence number, so two runs with the same seed produce the same
trace.

The hot path is deliberately split in two (see ``docs/performance.md``):

* **Zero-delay triggers** (CQ completions, credit returns, direct store
  hand-offs, process kick-starts — the majority of all events in an RPC
  simulation) bypass the binary heap entirely and land on an
  *immediate-ready deque* of bare events, drained FIFO.  Any heap entry
  sharing the current timestamp was necessarily pushed *before* the clock
  reached it — i.e. before any current ready entry was appended — so the
  rule "drain the heap while its head's time is ≤ now, then the deque"
  reproduces the exact total order a single ``(time, seq)`` heap would
  produce, without per-entry sequence numbers on the fast path.
* **Delayed events** go through the classic ``(time, seq, event)`` heap.
  ``seq`` is unique per simulator, so heap comparisons never fall through
  to comparing :class:`Event` objects (which are deliberately unorderable).
  A delay so small that ``now + delay`` rounds to ``now`` is routed to the
  ready deque, keeping the invariant above airtight even under float
  rounding.
* **In-place wake-ups and the hand-off.**  While :meth:`Simulator.run`
  fires an event's *last* callback, nothing else runs before the loop
  selects its next event.  So when something the callback causes would
  be that very next dispatch, the dispatch is left out; every event that
  is still dispatched keeps its exact place in the order.  A sleep
  runs in place: when nothing else precedes its end,
  :meth:`Simulator.sleep` advances the clock and the running process
  carries on.  Every other zero-delay trigger is handed off — a
  spawn's kick-start, a satisfied wait (a free resource unit, a
  waiting store item), a ``succeed`` that wakes a waiter, a process's
  completion: the first one the callback makes is handed to the loop,
  which fires its callbacks before it selects the next event
  (:meth:`Event.succeed`).

:meth:`Simulator.run` and :meth:`Simulator.run_profiled` share one
inlined event dispatch loop — no per-event method calls beyond the
callbacks themselves.  :meth:`Simulator.step` remains the observable
single-step API: it fires events in the same order, but takes no
in-place path, so it counts more events.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import count
from time import perf_counter_ns
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..obs.span import null_span_log

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


#: The error :meth:`Simulator.sleep` and :meth:`Simulator.timeout` raise
#: for a delay that is not ``>= 0`` (a negative one, or NaN).
_BAD_DELAY = "delay must be >= 0, got %r"


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yields, ...)."""


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed`
    is called, at which point it is placed on the simulator schedule and
    its callbacks run when the loop reaches it.  An event only ever
    succeeds.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, firing at the current instant.

        It is queued like any zero-delay event, except when the loop is
        firing the last callback of an event, the ready deque is empty
        and no heap entry is due at ``now``: then this event would be
        the loop's very next dispatch.  It goes to the loop's hand-off
        slot instead, and the loop fires its callbacks before it selects
        its next event, without counting a dispatch.  The flag is then
        cleared for the rest of the callback, so whatever else it
        triggers, sleeps on or finishes queues behind this event, as it
        would behind a queued one.  The slot is a trampoline: a chain of
        kick-starts or completions unwinds in the loop, not on the
        stack.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        if sim._last and not sim._ready:
            heap = sim._heap
            if not heap or heap[0][0] > sim.now:
                sim._last = False
                sim._handoff = self
                return self
        sim._ready_append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if it has)."""
        if self._processed:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation; only
    :meth:`Simulator.timeout` and :meth:`Simulator.sleep` build one."""

    __slots__ = ()


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A generator-based coroutine running in virtual time.

    The wrapped generator yields :class:`Event` objects; the process sleeps
    until each yielded event fires, then resumes with the event's value.
    The process itself is an event that fires when the generator returns,
    carrying the return value — so processes can wait on each other.  An
    exception the generator raises propagates out of :meth:`Simulator.run`.
    A kick-start or a completion that would be the loop's very next
    dispatch is handed to the loop instead of queued
    (:meth:`Event.succeed`).

    The resume path dispatches through ``gen.send``, bound once at
    construction, and attaches itself straight to the yielded target's
    callback list — duck typing instead of a per-yield ``isinstance``
    check.
    """

    __slots__ = ("gen", "name", "_send", "_cb")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError("Process requires a generator, got %r" % (gen,))
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._send = gen.send
        #: The resume callback, bound once — attaching ``self._resume``
        #: directly would allocate a fresh bound method on every yield.
        #: It references ``self``, so ``_resume`` clears it when the
        #: generator returns: a finished process is then acyclic and freed
        #: by refcount instead of waiting for the cyclic garbage collector.
        self._cb = self._resume
        # Kick-start at the current time.
        init = Event(sim)
        init.callbacks.append(self._cb)
        init.succeed()

    def _resume(self, event: Event) -> None:
        # The resume callback sits on one pending event at a time and
        # nothing else can wake the process, so a finished process is
        # never resumed again.  A loop, not recursion: a run of yields
        # whose targets have already fired (in-place sleeps, events
        # processed earlier) resumes in place without growing the stack.
        while True:
            try:
                target = self._send(event._value)
            except StopIteration as stop:
                self._cb = None
                self._finish(stop.value)
                return
            # Fast-path dispatch: every legitimate yield target is an
            # Event; reaching straight for its callback list replaces
            # both the isinstance check and the bound add_callback call.
            try:
                cbs = target.callbacks
            except AttributeError:
                raise SimulationError(
                    "process %r yielded %r (must yield Event)"
                    % (self.name, target)
                )
            if cbs is not None:
                cbs.append(self._cb)
                return
            # Already processed (yielded an event that has fired):
            # resume with it at once, as add_callback would.
            event = target

    #: The completion carrying the return value fires like any
    #: triggered event, hand-off included (see :meth:`Event.succeed`).
    _finish = Event.succeed


class _DetachedProcess(Process):
    """A process whose completion nobody waits on.

    Returning from the generator fires no event: the process is marked
    processed with its value on the spot and schedules nothing, so a
    fire-and-forget operation costs one dispatch fewer than a plain
    :class:`Process`.  An exception it raises propagates out of
    :meth:`Simulator.run` like any other process's.
    """

    __slots__ = ()

    def _finish(self, value: Any) -> None:
        if self.callbacks:
            raise SimulationError(
                "detached process %r has a waiter" % self.name)
        self._triggered = True
        self._processed = True
        self._value = value
        self.callbacks = None


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            # An event that has already fired may decide the condition
            # (and detach it) while it is being built: attach nothing
            # to the rest.
            if self._triggered:
                break
            ev.add_callback(self._check)

    def _results(self) -> dict:
        return {ev: ev._value for ev in self.events if ev._processed}

    def _detach(self) -> None:
        """Remove this condition's callback from still-pending events.

        Called as soon as an :class:`AnyOf` is decided: its losers may
        stay pending for a long time — or forever — and without the
        detach every decided condition would leave a dead callback
        behind, growing those events' callback lists without bound over
        a long sweep.
        """
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is not None:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self.succeed(self._results())
        self._detach()


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._results())


class Simulator:
    """The event loop: an immediate-ready deque + a heap of delayed events.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.sleep(100)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 100 and proc.value == "done"
    """

    def __init__(self):
        self.now: float = 0.0
        #: Delayed events: (fire time, seq, event) tuples.  ``seq`` is
        #: unique, so comparisons never reach the Event in slot 2.
        self._heap: List[tuple] = []
        #: Zero-delay events triggered at the current instant, drained
        #: FIFO after every heap entry with time <= now.  Because heap
        #: entries at the current timestamp always predate (in creation
        #: order) every current ready entry, this reproduces the exact
        #: total order of a single (time, seq) heap — see module docs.
        self._ready = deque()
        #: Bound ``self._ready.append``, cached once: zero-delay triggers
        #: are the most common scheduling operation in an RPC run.
        self._ready_append = self._ready.append
        #: Tie-break counter for heap entries: a bound ``count().__next__``
        #: is one C call instead of a load/add/store round trip.
        self._next_seq = count(1).__next__
        self._n_events = 0
        #: True only while :meth:`run` or :meth:`run_profiled` fires an
        #: event's last callback: nothing else runs between the end of
        #: that callback and the loop's next selection (see
        #: :meth:`sleep` and :meth:`Event.succeed`).
        self._last = False
        #: The latest time an in-place sleep may reach, or an ACK nobody
        #: waits on may land unwaited (``verbs/qp.py``): ``until`` while
        #: :meth:`run` or :meth:`run_profiled` has one, +inf while it
        #: drains the schedule, -inf outside a run (so :meth:`step` never
        #: takes either path).
        self.horizon = -math.inf
        #: A triggered event the loop fires before it selects its next
        #: event (see :meth:`Event.succeed`).
        self._handoff: Optional[Event] = None
        #: Whether components keep the accounting that telemetry and the
        #: auditors read: queue accounting, wait times and value-count
        #: ledgers.  Components read it **once, at construction time**
        #: and cache it, so the uninstrumented hot path pays one cached
        #: bool branch.  :meth:`repro.obs.Telemetry.install` and an
        #: audited :class:`repro.harness.Run` set it *before* the
        #: cluster is built.
        self.instrumented = False
        #: Span log for per-RPC/per-message tracing; disabled by default.
        self.spans = null_span_log
        #: Every instrumented component (RNICs, CQs, credit states, ...)
        #: registers itself here at construction so the end-of-run
        #: auditors (:mod:`repro.obs.audit`) and the metrics registry
        #: can enumerate the system without the simulation threading
        #: references around.
        self.components: List[Any] = []
        #: Heap pops that would move the clock backwards (always 0 with a
        #: correct heap; the monotone-time auditor asserts it).
        self.time_regressions = 0

    # -- scheduling ----------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event to be triggered manually."""
        # Flattened Event.__init__ — sim.event() is a per-RPC allocation.
        ev = Event.__new__(Event)
        ev.sim = self
        ev.callbacks = []
        ev._value = None
        ev._triggered = False
        ev._processed = False
        return ev

    def sleep(self, delay: float) -> Timeout:
        """An event firing ``delay`` ns from now, for a process to yield.

        Queued exactly as :meth:`timeout` queues it, except when the loop
        is firing the last callback of an event (the caller's resume),
        the ready deque is empty, no heap entry is due at or before
        ``when = now + delay`` (an entry at exactly ``when`` was pushed
        first, so it fires first) and ``when`` is inside the run's
        :attr:`horizon`.  Then the timeout would be the loop's very next
        dispatch and would wake only the caller: it is born fired, the
        clock moves to ``when`` at once and the caller carries on in
        place.

        Precondition: the caller is a process that yields the returned
        event at once.  A callback attached to a born-fired event runs at
        attach time, so whatever the caller did between this call and its
        yield would run after that callback instead of before it.
        """
        # Written flat, like timeout(): this is the most common wait.
        # One comparison also rejects NaN, for which ``delay < 0`` is false.
        if not delay >= 0:
            raise ValueError(_BAD_DELAY % (delay,))
        now = self.now
        when = now + delay
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev._value = None
        ev._triggered = True
        if self._last and when <= self.horizon and not self._ready:
            heap = self._heap
            if not heap or heap[0][0] > when:
                self.now = when
                ev.callbacks = None
                ev._processed = True
                return ev
        ev.callbacks = []
        ev._processed = False
        if when > now:
            heapq.heappush(self._heap, (when, self._next_seq(), ev))
        else:
            self._ready_append(ev)
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now.

        Always queued: this is the form for a timeout that is not
        yielded at once (a race in :meth:`any_of`, a timed callback).
        """
        # Flattened Event.__init__ + succeed: a Timeout is born triggered,
        # and creating one is the single most common allocation in a run.
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._triggered = True
        ev._processed = False
        if delay == 0.0:
            self._ready_append(ev)
        elif delay > 0:
            when = self.now + delay
            if when > self.now:
                heapq.heappush(self._heap, (when, self._next_seq(), ev))
            else:
                self._ready_append(ev)
        else:
            raise ValueError(_BAD_DELAY % (delay,))
        return ev

    def spawn(self, gen: ProcessGen, name: str = "",
              detached: bool = False) -> Process:
        """Start a new process running ``gen``.

        ``detached=True`` promises that nobody will wait on the process:
        its return fires no event (see :class:`_DetachedProcess`).
        """
        if detached:
            return _DetachedProcess(self, gen, name)
        return Process(self, gen, name)

    def register_component(self, component: Any) -> None:
        """Record a component for end-of-run auditing and reporting."""
        self.components.append(component)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -----------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Count of events fired so far (for perf/diagnostic reporting)."""
        return self._n_events

    def _pop_next(self) -> Optional[Event]:
        """Remove and return the next event in (time, seq) order,
        advancing the clock; None when nothing is scheduled."""
        ready = self._ready
        heap = self._heap
        if ready:
            # A heap entry fires before the ready queue only when it is
            # overdue (time regression) or shares the current instant —
            # in which case it predates every current ready entry.
            if not heap or heap[0][0] > self.now:
                return ready.popleft()
        if not heap:
            return None
        when, _seq, event = heapq.heappop(heap)
        if when < self.now:
            self.time_regressions += 1
        self.now = when
        return event

    def step(self) -> bool:
        """Fire the next event; returns False when nothing is scheduled."""
        event = self._pop_next()
        if event is None:
            return False
        self._n_events += 1
        event._fire()
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or virtual time reaches ``until``.

        When ``until`` is given, the clock is advanced exactly to it even
        if the last event fires earlier.

        It fires events in the order ``while self.step(): ...`` would,
        but while it fires an event's last callback it sets the flag
        that lets the in-place wake-ups leave out the next dispatch, and
        it fires a handed-off event before it selects the next one, so
        it dispatches fewer events than stepping does.
        """
        self._dispatch(until, None)

    def run_profiled(self, profile: Any,
                     until: Optional[float] = None) -> None:
        """:meth:`run` for the host-time census.

        The same loop, so a profiled run dispatches the same events and
        produces byte-identical simulation results; in addition every
        dispatched event, with the events it hands off, is bracketed
        with ``perf_counter_ns`` and charged to ``profile`` via
        ``profile.account(event, callbacks, dt_ns)``.
        """
        self._dispatch(until, profile.account)

    def _dispatch(self, until: Optional[float],
                  account: Optional[Callable[[Event, Any, int], None]]
                  ) -> None:
        """The event loop behind :meth:`run` and :meth:`run_profiled`.

        This is the kernel's hottest loop; it inlines event selection and
        firing (the body of :meth:`step` and :meth:`Event._fire`) so the
        per-event cost is the callbacks themselves plus a few
        local-variable operations.  With ``account`` set, it records the
        dispatched event, its callback list and the host clock before
        firing it, and charges the elapsed host time once the event and
        its hand-offs have fired.
        """
        if until is not None and until < self.now:
            raise SimulationError("until=%r is in the past (now=%r)" % (until, self.now))
        # Draining is a window that never closes.
        stop = math.inf if until is None else until
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = heapq.heappop
        clock = perf_counter_ns
        n = self._n_events
        self.horizon = stop
        try:
            while True:
                # Re-read: an in-place sleep moves the clock.
                now = self.now
                if ready and (not heap or heap[0][0] > now):
                    event = popleft()
                elif heap:
                    when = heap[0][0]
                    if when > stop:
                        break
                    event = pop(heap)[2]
                    if when < now:
                        self.time_regressions += 1
                    self.now = when
                else:
                    break
                n += 1
                if account is not None:
                    mark = (event, event.callbacks, clock())
                while True:
                    # Inlined Event._fire(); one callback is the norm.
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            self._last = True
                            callbacks[0](event)
                        else:
                            self._last = False
                            last = callbacks.pop()
                            for fn in callbacks:
                                fn(event)
                            self._last = True
                            last(event)
                    # An event handed off by the callbacks fires next,
                    # as its queued twin would have.
                    event = self._handoff
                    if event is None:
                        break
                    self._handoff = None
                if account is not None:
                    account(mark[0], mark[1], clock() - mark[2])
        finally:
            self._requeue_handoff()
            self._last = False
            self.horizon = -math.inf
            self._n_events = n
        if until is not None:
            self.now = until

    def _requeue_handoff(self) -> None:
        """Queue a hand-off that a raising callback left in the slot.

        It was taken with the ready deque empty, so it goes to the head:
        whatever the callback queued before it raised stays behind it.
        """
        event = self._handoff
        if event is not None:
            self._handoff = None
            self._ready.appendleft(event)
