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

:meth:`Simulator.run` inlines the event dispatch loop — no per-event
method calls beyond the callbacks themselves — while :meth:`Simulator.step`
remains the observable single-step API with identical semantics.
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
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yields, ...)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party passes ``cause`` to describe why; e.g. the
    sender-side thread scheduler interrupts an application thread when the
    QP it was waiting on gets deactivated.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, at which point it is placed on the simulator
    schedule and its callbacks run when the loop reaches it.  Processes
    wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, firing after ``delay`` ns."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        if delay == 0.0:
            self.sim._ready_append(self)
        else:
            self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._schedule(self, 0.0)
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
    :meth:`Simulator.timeout` builds one."""

    __slots__ = ()


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A generator-based coroutine running in virtual time.

    The wrapped generator yields :class:`Event` objects; the process sleeps
    until each yielded event fires, then resumes with the event's value (or
    with its exception raised inside the generator).  The process itself is
    an event that fires when the generator returns, carrying the return
    value — so processes can wait on each other.

    The resume path dispatches through bound callables precomputed at
    construction (``gen.send`` / ``gen.throw``) and attaches itself to the
    yielded target via its ``add_callback`` — duck typing instead of a
    per-yield ``isinstance`` check.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_send", "_throw", "_cb")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError("Process requires a generator, got %r" % (gen,))
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._send = gen.send
        self._throw = gen.throw
        #: The resume callback, bound once — attaching ``self._resume``
        #: directly would allocate a fresh bound method on every yield.
        #: It references ``self``, so ``_resume`` clears it on every
        #: terminal path: a finished process is then acyclic and freed by
        #: refcount instead of waiting for the cyclic garbage collector.
        self._cb = self._resume
        # Kick-start at the current time.
        init = Event(sim)
        init.callbacks.append(self._cb)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A no-op if the process has already finished.
        """
        if self._triggered:
            return
        waited = self._waiting_on
        if waited is not None and not waited._processed:
            # Detach from the event we were waiting on; it may still fire
            # later but must not resume us twice.
            if waited.callbacks is not None and self._cb in waited.callbacks:
                waited.callbacks.remove(self._cb)
        self._waiting_on = None
        interrupt_ev = Event(self.sim)
        interrupt_ev.callbacks.append(self._cb)
        interrupt_ev.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._triggered:
            # A stale wake-up (e.g. a second interrupt scheduled in the
            # same instant the process finished) must not resume a
            # completed generator.
            return
        try:
            if event._exc is None:
                target = self._send(event._value)
            else:
                target = self._throw(event._exc)
        except StopIteration as stop:
            self._cb = None
            self.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: unhandled interruption is a
            # cancellation, not a crash.
            self._cb = None
            self.succeed(None)
            return
        except BaseException as exc:
            if self.sim.strict:
                raise
            self._cb = None
            self.fail(exc)
            return
        # Fast-path dispatch: every legitimate yield target is an Event;
        # reaching straight for its callback list replaces both the
        # isinstance check and the bound add_callback call.
        try:
            cbs = target.callbacks
        except AttributeError:
            raise SimulationError(
                "process %r yielded %r (must yield Event)" % (self.name, target)
            )
        self._waiting_on = target
        if cbs is not None:
            cbs.append(self._cb)
        else:
            # Already processed (yielded an event that has fired): resume
            # immediately, as add_callback would.
            self._resume(target)


class _DetachedProcess(Process):
    """A process whose completion nobody waits on.

    Returning from the generator fires no event: the process is marked
    processed with its value on the spot and schedules nothing, so a
    fire-and-forget operation costs one dispatch fewer than a plain
    :class:`Process`.  ``fail`` is inherited and still schedules, so an
    error under ``strict=False`` surfaces like any other process's.
    """

    __slots__ = ()

    def succeed(self, value: Any = None, delay: float = 0.0) -> Event:
        if self._triggered:
            raise SimulationError("event already triggered")
        if self.callbacks:
            raise SimulationError(
                "detached process %r has a waiter" % self.name)
        self._triggered = True
        self._processed = True
        self._value = value
        self.callbacks = None
        return self


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
            ev.add_callback(self._check)

    def _results(self) -> dict:
        return {
            ev: ev._value for ev in self.events if ev._processed and ev._exc is None
        }

    def _detach(self) -> None:
        """Remove this condition's callback from still-pending events.

        Called as soon as the condition's outcome is decided: the losers
        of an :class:`AnyOf` (or the not-yet-fired events of a failed
        :class:`AllOf`) may stay pending for a long time — or forever —
        and without the detach every decided condition would leave a dead
        callback behind, growing those events' callback lists without
        bound over a long sweep.
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
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(self._results())
        self._detach()


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            self._detach()
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._results())


class Simulator:
    """The event loop: an immediate-ready deque + a heap of delayed events.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(100)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 100 and proc.value == "done"
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
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

    def _schedule(self, event: Event, delay: float) -> None:
        if delay == 0.0:
            self._ready_append(event)
        elif delay > 0:
            when = self.now + delay
            if when > self.now:
                heapq.heappush(self._heap, (when, self._next_seq(), event))
            else:
                self._ready_append(event)
        else:
            raise SimulationError("cannot schedule into the past")

    def event(self) -> Event:
        """A fresh pending event to be triggered manually."""
        # Flattened Event.__init__ — sim.event() is a per-RPC allocation.
        ev = Event.__new__(Event)
        ev.sim = self
        ev.callbacks = []
        ev._value = None
        ev._exc = None
        ev._triggered = False
        ev._processed = False
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now."""
        # Flattened Event.__init__ + succeed: a Timeout is born triggered,
        # and creating one is the single most common allocation in a run.
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._exc = None
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
            raise ValueError("negative timeout delay: %r" % delay)
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

        This is the kernel's hottest loop; it inlines event selection and
        firing (the body of :meth:`step` and :meth:`Event._fire`) so the
        per-event cost is the callbacks themselves plus a few local-variable
        operations.  Semantics are identical to ``while self.step(): ...``.
        """
        if until is not None and until < self.now:
            raise SimulationError("until=%r is in the past (now=%r)" % (until, self.now))
        # Draining is a window that never closes.
        stop = math.inf if until is None else until
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = heapq.heappop
        n = self._n_events
        try:
            now = self.now  # mirror of self.now, for branch-free reads
            while True:
                if ready and (not heap or heap[0][0] > now):
                    event = popleft()
                elif heap:
                    when = heap[0][0]
                    if when > stop:
                        break
                    event = pop(heap)[2]
                    if when < now:
                        self.time_regressions += 1
                    self.now = now = when
                else:
                    break
                n += 1
                # Inlined Event._fire(); one callback is the norm.
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for fn in callbacks:
                            fn(event)
        finally:
            self._n_events = n
        if until is not None:
            self.now = until

    def run_profiled(self, profile: Any,
                     until: Optional[float] = None) -> None:
        """Instrumented twin of :meth:`run` for the host-time census.

        Identical event-selection semantics (same order, same clock
        behaviour, same ``until`` handling — a profiled run produces
        byte-identical simulation results), but every callback batch is
        bracketed with ``perf_counter_ns`` and charged to ``profile``
        via ``profile.account(event, callbacks, dt_ns)``.

        Kept as a **separate** loop so :meth:`run` — the PR 5 fast path —
        stays untouched and pays nothing when profiling is off.
        """
        if until is not None and until < self.now:
            raise SimulationError("until=%r is in the past (now=%r)" % (until, self.now))
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = heapq.heappop
        account = profile.account
        clock = perf_counter_ns
        stop = math.inf if until is None else until
        n = self._n_events
        try:
            while True:
                if ready and (not heap or heap[0][0] > self.now):
                    event = popleft()
                elif heap:
                    when = heap[0][0]
                    if when > stop:
                        break
                    event = pop(heap)[2]
                    if when < self.now:
                        self.time_regressions += 1
                    self.now = when
                else:
                    break
                n += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                t_fire = clock()
                if callbacks:
                    for fn in callbacks:
                        fn(event)
                account(event, callbacks, clock() - t_fire)
        finally:
            self._n_events = n
        if until is not None:
            self.now = until

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` fires; returns its value."""
        while not event._processed:
            if not self.step():
                raise SimulationError(
                    "simulation drained before event fired (deadlock?)"
                )
        return event.value
