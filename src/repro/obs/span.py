"""Per-RPC and per-message spans recorded in virtual time.

A :class:`Span` is one unit of work moving through the stack — an RPC
from ``fl_send_rpc`` to response delivery, or one wire message from
doorbell to remote-ring landing.  Spans carry *phases*: named
``(name, t0, t1)`` intervals recorded as the work crosses each layer.
Each interval is recorded once, by the layer that timed it.

An interval's name says what kind of time it is.  The names in
:data:`SPENT` record time the work spent making progress (a NIC
pipeline pass, the server handler); every other name records time the
work was *blocked on* a resource — a credit grant, a PCIe cache-miss
fetch, the shared TX port, a worker queue.  :meth:`SpanLog.breakdown`
sums every interval by name, answering the question every figure in the
paper hinges on: *where did the microseconds go?*  The critical-path
extractor in :mod:`repro.obs.causal` walks only the waits, answering
*which resource gated the work?*

Spans are created through a :class:`SpanLog`; the default installed on
every simulator is :data:`null_span_log`, whose ``enabled`` flag lets
hot paths skip span work entirely (producers test ``spans.enabled`` once
per message and carry ``None`` otherwise).

Virtual timestamps are passed in explicitly by callers (they all hold
``sim.now``); this module stays free of simulator imports so any layer
can use it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanLog", "NullSpanLog", "null_span_log", "PHASES",
           "SPENT", "phase_rank"]

#: Canonical interval names in stack order, used to order tables and to
#: break critical-path ties.  Producers are free to add more (e.g. the
#: name of a generic ``sim.resources.Resource``); unknown names sort last.
PHASES = (
    "client_queue",    # flock/rpc.py — submission → leader collects it
    "credit_wait",     # flock/rpc.py — sender out of credits (§5.1)
    "qp_hold",         # flock/rpc.py + qp_scheduler.py — QP deactivated
    "ring_space",      # flock/rpc.py — receiver ring back-pressure (§4.1)
    "server_queue",    # flock/rpc.py — ring landing → worker pop
    "doorbell_mmio",   # flock/rpc.py — header build + doorbell
    "nic_tx",          # hw/rnic.py — whole TX pipeline pass
    "pcie_stall",      # hw/pcie.py — QP/MTT miss DMA fetch
    "nic_throttle",    # hw/rnic.py — NIC pipeline rate limiting
    "ecn_throttle",    # verbs/qp.py — DCQCN pacing after an ECN rate cut
    "pfc_pause",       # net/congestion — sender PAUSE-flow-controlled
    "tx_port",         # sim/resources.py — shared TX port serialisation
    "wire",            # hw/rnic.py — link-bandwidth serialisation
    "switch_queue",    # net/congestion — egress output-queue backlog
    "propagation",     # net/fabric.py — switch hops + flight time
    "nic_rx",          # hw/rnic.py — whole RX pipeline pass
    "cq_poll",         # verbs/cq.py — CQE ready → reaped by a poller
    "server_handler",  # flock/rpc.py — worker pop → handler done
    "response",        # flock/rpc.py — response post → client delivery
    "cpu",             # causal.GAP_RESOURCE — path time no wait covers
)

#: The names that record time spent making progress, not a wait.
SPENT = frozenset(("client_queue", "doorbell_mmio", "nic_tx", "nic_rx",
                   "server_handler", "response"))

_PHASE_RANK = {name: i for i, name in enumerate(PHASES)}


def phase_rank(name: str) -> Tuple[int, str]:
    """Deterministic name ordering: canonical stack order first, unknown
    names after, alphabetically."""
    return (_PHASE_RANK.get(name, len(PHASES)), name)


class Span:
    """One traced unit of work with named intervals in virtual time."""

    __slots__ = ("name", "track", "t0", "t1", "args", "phases", "_open",
                 "pid", "_log", "donor")

    def __init__(self, log: "SpanLog", name: str, track: str, t0: float,
                 pid: int, args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.track = track
        self.t0 = t0
        self.t1: Optional[float] = None
        self.args: Dict[str, Any] = args or {}
        #: Finished intervals: (name, t0, t1).
        self.phases: List[Tuple[str, float, float]] = []
        self._open: Dict[str, float] = {}
        self.pid = pid
        self._log = log
        #: True once another span adopted this span's intervals.
        self.donor = False

    # -- phases ---------------------------------------------------------

    def open(self, phase: str, t: float) -> None:
        """Begin interval ``phase`` at virtual time ``t``.

        Use this form when the interval's end is not yet known (a PCIe
        fetch entering a backlogged queue, a contended acquisition): a
        span flushed at end of run while still blocked closes it at the
        truncation point instead of losing it.  Opening a name that is
        already open closes the prior interval at ``t`` first, so
        re-opens never silently discard time.
        """
        prior = self._open.get(phase)
        if prior is not None:
            self.phases.append((phase, prior, t))
        self._open[phase] = t

    def close(self, phase: str, t: float) -> None:
        """End a previously opened interval (no-op if never opened)."""
        t0 = self._open.pop(phase, None)
        if t0 is not None:
            self.phases.append((phase, t0, t))

    def add_phase(self, phase: str, t0: float, t1: float) -> None:
        """Record a finished interval directly."""
        self.phases.append((phase, t0, t1))

    def bump(self, key: str) -> None:
        """Count one more of ``key`` in ``args`` (e.g. cache misses)."""
        self.args[key] = self.args.get(key, 0) + 1

    def adopt(self, other: "Span") -> None:
        """Copy ``other``'s intervals (e.g. a message-level hardware span
        into each member RPC's span) so per-RPC breakdowns and critical
        paths include the shared hardware time.  ``other`` becomes a
        donor, which the causal layer drops from its critical-path roots.
        """
        self.phases.extend(other.phases)
        other.donor = True

    # -- lifecycle ------------------------------------------------------

    def finish(self, t: float) -> None:
        """Close the span (and any still-open intervals) at ``t``."""
        if self.t1 is not None:
            return
        for phase, t0 in self._open.items():
            self.phases.append((phase, t0, t))
        self._open.clear()
        self.t1 = t
        self._log._finished(self)

    @property
    def duration(self) -> float:
        """Span length in ns (0 while unfinished)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

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

    def flush(self, t: float) -> int:
        """Finish every live span at ``t`` (the end of a run).

        Truncated spans get ``args["truncated"] = True`` and their open
        intervals closed at ``t``, then enter the log like any other
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

    def breakdown(self, name: Optional[str] = None
                  ) -> Dict[str, Dict[str, float]]:
        """Aggregate interval durations over finished spans.

        Returns ``{phase: {count, total_ns, mean_ns, max_ns, share}}``
        where ``share`` is the name's fraction of all interval time.
        ``name`` restricts aggregation to spans with that name (e.g.
        only ``"rpc"`` spans).  Adopted intervals count on both spans,
        so shares are fractions of interval time, not of wall time.
        """
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            for phase, t0, t1 in span.phases:
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
        return {phase: {"count": count,
                        "total_ns": total,
                        "mean_ns": total / count if count else 0.0,
                        "max_ns": peak,
                        "share": total / grand}
                for phase, (count, total, peak) in totals.items()}


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

    def breakdown(self, name: Optional[str] = None
                  ) -> Dict[str, Dict[str, float]]:
        """An empty breakdown."""
        return {}


#: Shared stub installed on simulators constructed without telemetry.
null_span_log = NullSpanLog()
