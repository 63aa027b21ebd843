"""Completion queues.

A CQ is a FIFO of :class:`Completion` entries DMA-ed by the RNIC.
Software reaps entries either by busy polling (``poll``) — whose CPU cost
the caller charges per the cost model — or by blocking on ``wait_pop``
inside a DES process (which models a poller that sleeps until work
arrives; the poll cost is still charged by the caller when an entry is
reaped).
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import List, Mapping, Optional

from ..sim import Event, Simulator, TrackedStore
from .wr import Completion

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """FIFO of completions, optionally bounded like a real CQ."""

    #: {value: count} ledgers: the queue depth after each push, and the
    #: CQEs each successful poll reaps.  Only an instrumented CQ keeps
    #: its own; the thousands of uninstrumented ones share these empty
    #: read-only ones.
    depths: Mapping[int, int] = MappingProxyType({})
    poll_batches: Mapping[int, int] = MappingProxyType({})

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "cq"):
        self.sim = sim
        self.name = name
        self._obs = sim.instrumented
        self._trace = sim.spans.enabled
        # Queueing-theory accounting (arrival times, depth-time integral)
        # only when instrumented: the Little's-law auditor consumes it,
        # the uninstrumented path stays a plain Store.
        self._store = TrackedStore(sim, capacity, track=self._obs,
                                   name=name)
        self.pushed = 0
        self.overflowed = 0
        if self._obs:
            self.depths, self.poll_batches = Counter(), Counter()
        sim.register_component(self)

    def __len__(self) -> int:
        return len(self._store)

    def push(self, wc: Completion) -> None:
        """RNIC side: append a completion (drops + counts on overflow)."""
        if self._store.try_put(wc):
            self.pushed += 1
            if self._obs:
                self.depths[len(self._store)] += 1
            if self._trace and wc.span is not None:
                # Stamp CQ entry time; the reap side turns the residency
                # into a ``cq_poll`` wait.  (Direct hand-off to a blocked
                # getter stamps and reaps at the same instant: a
                # zero-length wait.)
                wc._cq_t0 = self.sim.now
        else:
            # A real overflowed CQ moves the QP to an error state; for the
            # simulation, counting the overflow is enough for tests.
            self.overflowed += 1

    def _note_reap(self, wc: Completion) -> None:
        """Record how long the CQE sat before software picked it up."""
        t0 = getattr(wc, "_cq_t0", None)
        if t0 is not None and wc.span is not None:
            wc.span.add_phase("cq_poll", t0, self.sim.now)

    def _reap_cb(self, ev: Event) -> None:
        if ev.ok and isinstance(ev.value, Completion):
            self._note_reap(ev.value)

    def poll(self, max_entries: int = 16) -> List[Completion]:
        """Non-blocking reap of up to ``max_entries`` completions."""
        out: List[Completion] = []
        for _ in range(max_entries):
            ok, wc = self._store.try_get()
            if not ok:
                break
            out.append(wc)
        if out:
            # Completion batching: how many CQEs each successful poll reaps.
            if self._obs:
                self.poll_batches[len(out)] += 1
            if self._trace:
                for wc in out:
                    self._note_reap(wc)
        return out

    def wait_pop(self) -> Event:
        """Event yielding the next completion (blocking poller)."""
        ev = self._store.get()
        if self._trace:
            ev.add_callback(self._reap_cb)
        return ev

    def report_metrics(self, metrics) -> None:
        """Report this CQ's ledgers to a metrics registry at run end."""
        metrics.add("verbs.cq.pushed", self.pushed)
        metrics.add("verbs.cq.overflowed", self.overflowed)
        for name, ledger in (("verbs.cq.depth", self.depths),
                             ("verbs.cq.poll_batch", self.poll_batches)):
            metrics.observe(name, 0, 0)  # reported even when empty
            for value, n in ledger.items():
                metrics.observe(name, value, n)

    # -- audit accounting (populated when telemetry is live) -------------

    @property
    def reaped(self) -> int:
        """Completions that have left the queue (polled or handed off)."""
        return self._store.reaped
