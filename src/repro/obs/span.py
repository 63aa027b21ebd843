"""Per-RPC and per-message spans recorded in virtual time.

A :class:`Span` is one unit of work moving through the stack — an RPC
from ``fl_send_rpc`` to response delivery, or one wire message from
doorbell to remote-ring landing.  Spans carry *phases*: named
``(t0, t1)`` sub-intervals recorded as the work crosses each layer
(``client_queue``, ``doorbell_mmio``, ``pcie_stall``, ``wire``,
``propagation``, ``nic_rx``, ``server_queue``, ``server_handler``,
``response``).  Aggregating phase totals over a run answers the question
every figure in the paper hinges on: *where did the microseconds go?*

Spans additionally carry *wait edges*: typed ``(resource, t0, t1)``
intervals recorded whenever the work was **blocked on** something — a
credit grant, a PCIe cache-miss fetch, the shared TX port, a worker
queue.  Phases say where time was spent; edges say what the work was
waiting for, and feed the critical-path extractor in
:mod:`repro.obs.causal`.

Spans are created through a :class:`SpanLog`; the default installed on
every simulator is :data:`null_span_log`, whose ``enabled`` flag lets
hot paths skip span work entirely (producers test ``spans.enabled`` once
per message and carry ``None`` otherwise).

Virtual timestamps are passed in explicitly by callers (they all hold
``sim.now``); this module stays free of simulator imports so any layer
can use it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "SpanLog", "NullSpanLog", "null_span_log", "PHASES"]

#: Canonical phase names in stack order, used to order breakdown tables.
PHASES = (
    "client_queue",
    "doorbell_mmio",
    "nic_tx",
    "pcie_stall",
    "tx_queue",
    "wire",
    "switch_queue",
    "ecn_throttle",
    "propagation",
    "nic_rx",
    "server_queue",
    "server_handler",
    "response",
)


class Span:
    """One traced unit of work with named sub-phases in virtual time."""

    __slots__ = ("name", "track", "t0", "t1", "args", "phases", "edges",
                 "_open", "_open_waits", "pid", "_log", "_donated")

    def __init__(self, log: "SpanLog", name: str, track: str, t0: float,
                 pid: int, args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.track = track
        self.t0 = t0
        self.t1: Optional[float] = None
        self.args: Dict[str, Any] = args or {}
        #: Finished sub-intervals: (phase name, t0, t1).
        self.phases: List[Tuple[str, float, float]] = []
        #: Typed wait edges: (resource, t0, t1) — what blocked this work.
        self.edges: List[Tuple[str, float, float]] = []
        self._open: Dict[str, float] = {}
        self._open_waits: Dict[str, float] = {}
        self.pid = pid
        self._log = log
        #: Phase names this span donated to an adopter via
        #: ``adopt(claim=True)``; None while the span owns everything.
        self._donated: Optional[set] = None

    # -- phases ---------------------------------------------------------

    def open(self, phase: str, t: float) -> None:
        """Begin phase ``phase`` at virtual time ``t``.

        Opening a phase that is already open closes the prior interval
        at ``t`` first, so re-opens (e.g. a second PCIe stall before the
        first was closed) never silently discard time.
        """
        prior = self._open.get(phase)
        if prior is not None:
            self.phases.append((phase, prior, t))
        self._open[phase] = t

    def close(self, phase: str, t: float) -> None:
        """End a previously opened phase (no-op if it was never opened)."""
        t0 = self._open.pop(phase, None)
        if t0 is not None:
            self.phases.append((phase, t0, t))

    def add_phase(self, phase: str, t0: float, t1: float) -> None:
        """Record a finished sub-interval directly."""
        self.phases.append((phase, t0, t1))

    def wait(self, resource: str, t0: float, t1: float) -> None:
        """Record a typed wait edge: this work was blocked on
        ``resource`` over ``[t0, t1)``.  Zero/negative intervals are
        dropped so uncontended fast paths leave no edge."""
        if t1 > t0:
            self.edges.append((resource, t0, t1))

    def wait_begin(self, resource: str, t: float) -> None:
        """Start an *open* wait edge on ``resource``.

        Use this form when the wait's end is not yet known (a PCIe fetch
        entering a backlogged queue, a contended resource acquisition):
        if the span is truncated — flushed at end of run while still
        blocked — the open wait is closed at the truncation point instead
        of vanishing, so work stuck on a collapsed resource still
        attributes its blocked time to it.
        """
        self._open_waits[resource] = t

    def wait_end(self, resource: str, t: float) -> None:
        """Close an open wait edge (no-op if it was never begun)."""
        t0 = self._open_waits.pop(resource, None)
        if t0 is not None and t > t0:
            self.edges.append((resource, t0, t))

    def bump(self, key: str) -> None:
        """Count one more of ``key`` in ``args`` (e.g. cache misses)."""
        self.args[key] = self.args.get(key, 0) + 1

    def adopt(self, other: "Span", phases: Optional[Iterable[str]] = None,
              claim: bool = False) -> None:
        """Copy phases and wait edges from ``other`` (e.g. a message-level
        hardware span into each member RPC's span) so per-RPC breakdowns
        include the shared hardware time.  ``phases`` restricts which
        names copy (it filters edges by resource name too).

        Intended semantics: the *adopter* becomes the reporting owner of
        the copied intervals.  With ``claim=True`` the donor records what
        it gave away, so ``SpanLog.breakdown(dedup=True)`` can skip the
        donor's copies and avoid double-counting when both spans are
        finished; the causal layer likewise drops donor spans from its
        critical-path roots.  With ``claim=False`` (the default, and the
        pre-existing behaviour) both spans keep reporting the intervals
        and phase totals intentionally double-count the shared hardware
        time — shares are fractions of *phase* time, not wall time.
        """
        wanted = None if phases is None else frozenset(phases)
        donated = set()
        for name, t0, t1 in other.phases:
            if wanted is None or name in wanted:
                self.phases.append((name, t0, t1))
                donated.add(name)
        for resource, t0, t1 in other.edges:
            if wanted is None or resource in wanted:
                self.edges.append((resource, t0, t1))
        if claim:
            if other._donated is None:
                other._donated = donated
            else:
                other._donated.update(donated)

    @property
    def is_donor(self) -> bool:
        """True once another span claimed this span's intervals."""
        return self._donated is not None

    # -- lifecycle ------------------------------------------------------

    def finish(self, t: float) -> None:
        """Close the span (and any still-open phases/waits) at ``t``."""
        if self.t1 is not None:
            return
        for phase, t0 in list(self._open.items()):
            self.phases.append((phase, t0, t))
        self._open.clear()
        for resource, t0 in list(self._open_waits.items()):
            if t > t0:
                self.edges.append((resource, t0, t))
        self._open_waits.clear()
        self.t1 = t
        self._log._finished(self)

    @property
    def duration(self) -> float:
        """Span length in ns (0 while unfinished)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def phase_total(self, phase: str) -> float:
        """Summed duration of all sub-intervals named ``phase``."""
        return sum(t1 - t0 for name, t0, t1 in self.phases if name == phase)

    def __repr__(self) -> str:
        return "Span(%s, track=%s, t0=%.0f, dur=%.0f, phases=%d)" % (
            self.name, self.track, self.t0, self.duration, len(self.phases))


class SpanLog:
    """Collects finished spans and aggregates phase-level breakdowns.

    ``max_spans`` bounds memory in long sweeps: past the cap, further
    spans are still timed by their producers but dropped on finish (the
    ``dropped`` counter makes the truncation visible).  ``run_id``
    segregates spans from successive simulator runs inside one sweep; the
    Chrome-trace exporter maps it to the ``pid`` field.

    The log also tracks *live* spans (begun, not yet finished) so an
    end-of-run :meth:`flush` can close work still stuck on a collapsed
    resource.  Without it, attribution suffers survivorship bias: the
    RPCs most damaged by a bottleneck are exactly the ones that never
    finish within the measurement window, so they would never be
    logged and the bottleneck would be *under*-represented.
    """

    enabled = True

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self.run_id = 0
        #: Optional labels per run id (set by Telemetry.install).
        self.run_labels: Dict[int, str] = {}
        #: Live (unfinished) spans by identity, in creation order.
        self._live: Dict[int, Span] = {}
        #: Single-entry breakdown memo: (n_spans, name, dedup) -> table.
        self._bd_key: Optional[Tuple[int, Optional[str], bool]] = None
        self._bd_table: Dict[str, Dict[str, float]] = {}

    def new_run(self, label: str = "") -> int:
        """Start a new run scope; returns its id (Chrome-trace pid)."""
        self.run_id += 1
        self.run_labels[self.run_id] = label or ("run%d" % self.run_id)
        return self.run_id

    def begin(self, name: str, track: str, t: float, **args) -> Span:
        """Create a live span starting at virtual time ``t``."""
        span = Span(self, name, track, t, self.run_id or self.new_run(), args)
        self._live[id(span)] = span
        return span

    def _finished(self, span: Span) -> None:
        self._live.pop(id(span), None)
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    @property
    def live(self) -> int:
        """Number of begun-but-unfinished spans."""
        return len(self._live)

    def flush(self, t: float) -> int:
        """Finish every live span at ``t`` (the end of a run).

        Truncated spans get ``args["truncated"] = True`` and their open
        phases/waits closed at ``t``, then enter the log like any other
        finished span.  Returns how many spans were flushed.  Call this
        only once the simulator driving those spans has stopped — a
        later ``finish`` from the producer becomes a no-op.
        """
        stuck = list(self._live.values())
        for span in stuck:
            span.args["truncated"] = True
            span.finish(t)
        return len(stuck)

    def __len__(self) -> int:
        return len(self.spans)

    # -- aggregation ----------------------------------------------------

    def breakdown(self, name: Optional[str] = None,
                  dedup: bool = False) -> Dict[str, Dict[str, float]]:
        """Aggregate phase durations over finished spans.

        Returns ``{phase: {count, total_ns, mean_ns, max_ns, share}}``
        where ``share`` is the phase's fraction of all phase time.
        ``name`` restricts aggregation to spans with that name (e.g.
        only ``"rpc"`` spans).  ``dedup=True`` skips phases a donor span
        gave away through ``Span.adopt(claim=True)``, so shared hardware
        intervals count once (on the adopter) instead of twice.

        The result is memoised per finished-span count, so repeated
        queries (harness tables asking for several ``phase_share``\\ s)
        aggregate once instead of once per call.  Treat the returned
        table as read-only.
        """
        key = (len(self.spans), name, dedup)
        if key == self._bd_key:
            return self._bd_table
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            donated = span._donated if dedup else None
            for phase, t0, t1 in span.phases:
                if donated is not None and phase in donated:
                    continue
                cell = totals.get(phase)
                if cell is None:
                    cell = [0, 0.0, 0.0]  # count, total, max
                    totals[phase] = cell
                dur = t1 - t0
                cell[0] += 1
                cell[1] += dur
                if dur > cell[2]:
                    cell[2] = dur
        grand = sum(cell[1] for cell in totals.values()) or 1.0
        out: Dict[str, Dict[str, float]] = {}
        for phase, (count, total, peak) in totals.items():
            out[phase] = {
                "count": count,
                "total_ns": total,
                "mean_ns": total / count if count else 0.0,
                "max_ns": peak,
                "share": total / grand,
            }
        self._bd_key = key
        self._bd_table = out
        return out

    def phase_share(self, phase: str) -> float:
        """Fraction of all phase time spent in ``phase`` (0 if unseen).

        Served from the memoised breakdown: querying N phases in a row
        (as the harness tables do) costs one aggregation pass, not N.
        """
        table = self.breakdown()
        return table.get(phase, {}).get("share", 0.0)


class NullSpanLog:
    """Disabled span log: producers skip span creation entirely."""

    enabled = False
    #: Immutable on purpose: the null object is a process-wide singleton,
    #: so a mutable list here would leak accidental appends across runs.
    spans: Tuple[Span, ...] = ()
    dropped = 0
    run_id = 0

    def new_run(self, label: str = "") -> int:
        """No run scopes when disabled."""
        return 0

    def begin(self, name: str, track: str, t: float, **args):
        """Callers must not reach this on the disabled path; returning
        None keeps misuse loud (attribute errors) instead of silent."""
        return None

    live = 0

    def flush(self, t: float) -> int:
        """Nothing to flush when disabled."""
        return 0

    def __len__(self) -> int:
        return 0

    def breakdown(self, name: Optional[str] = None,
                  dedup: bool = False) -> Dict[str, Dict[str, float]]:
        """An empty breakdown."""
        return {}

    def phase_share(self, phase: str) -> float:
        """Nothing was recorded."""
        return 0.0


#: Shared stub installed on simulators constructed without telemetry.
null_span_log = NullSpanLog()
