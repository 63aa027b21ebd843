"""Output-queued switch model: per-egress-port buffers, ECN, PFC.

The paper's testbed (§8.1) is 24 nodes behind one 100 Gbps switch.  The
baseline :class:`~repro.net.fabric.Fabric` treats that switch as a wire:
every transfer sees an idle path, so N senders targeting one receiver
overlap for free and coalescing's fabric-side win (fewer packets →
shallower queues) is invisible.  This module adds the missing layer:

* one :class:`SwitchPort` per destination node, with a finite output
  buffer served FIFO at link rate.  Service is bookkept with virtual
  finish times — the port drains at exactly ``rate`` bytes/ns whenever
  backlogged, so the instantaneous queue depth is
  ``(busy_until - now) * rate`` with no per-byte events.  The switch is
  cut-through like the baseline model (``propagation_ns`` already covers
  one traversal): an arriving message is charged only the *queueing*
  delay behind earlier arrivals, while its own serialization occupies
  the port for those behind it.
* **ECN marking** on enqueue, RED-style: the mark probability ramps
  linearly from 0 at ``ecn_kmin_bytes`` of depth to ``ecn_pmax`` at
  ``ecn_kmax_bytes`` and is 1 beyond — below Kmin traffic is never
  marked, which the unit tests pin down.  Marks on reliable transport
  become CNPs to the sender's DCQCN limiter (see
  :mod:`repro.net.congestion.dcqcn`).
* **tail drop** past the buffer when PFC is off (RC absorbs it as a
  hardware retransmission, UD surfaces a drop), or **PFC** when on: a
  port crossing XOFF pauses every *source node* feeding it, and a paused
  source is blocked for **all** destinations — the head-of-line blocking
  that makes lossless RoCE fabrics fragile under incast.  PFC never
  drops; the buffer stretches into headroom for messages already past
  their pause check.

Every blocking interaction records a wait (``switch_queue``,
``pfc_pause``) on the carried span for critical-path attribution, and
the structural per-port counters are cross-checked end-of-run by the
``switch`` auditor in :mod:`repro.obs.audit`.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Optional, Tuple

from ...config import CongestionConfig, NetConfig
from ...obs.span import Span
from ...sim import Event, Simulator

__all__ = ["Switch", "SwitchPort"]


class SwitchPort:
    """One egress port: finite output queue served at link rate."""

    __slots__ = (
        "name", "rate", "busy_until",
        "offered_msgs", "offered_bytes", "accepted_msgs", "accepted_bytes",
        "dropped_msgs", "dropped_bytes", "ecn_marks", "pause_events",
        "resume_events", "peak_depth_bytes", "queue_wait_ns", "paused",
        "resume_ev",
    )

    def __init__(self, name: str, rate: float):
        self.name = name
        self.rate = rate
        #: Virtual time the last accepted byte finishes serializing.
        self.busy_until = 0.0
        self.offered_msgs = 0
        self.offered_bytes = 0
        self.accepted_msgs = 0
        self.accepted_bytes = 0
        self.dropped_msgs = 0
        self.dropped_bytes = 0
        self.ecn_marks = 0
        #: Times this port asserted XOFF, and XON (PFC mode).
        self.pause_events = 0
        self.resume_events = 0
        self.peak_depth_bytes = 0.0
        #: Cumulative queueing delay charged to arrivals (ns).
        self.queue_wait_ns = 0.0
        self.paused = False
        self.resume_ev: Optional[Event] = None

    def depth_bytes(self, now: float) -> float:
        """Instantaneous output-queue occupancy.

        Exact for a work-conserving FIFO draining at ``rate``: the
        backlog in bytes is the remaining busy time times the rate.
        """
        return max(0.0, (self.busy_until - now) * self.rate)

    def served_bytes(self, now: float) -> float:
        """Bytes fully serialized out of the port so far."""
        return self.accepted_bytes - self.depth_bytes(now)

    def utilization(self, now: float) -> float:
        """Fraction of elapsed time the port spent serializing."""
        return self.served_bytes(now) / (self.rate * max(now, 1.0))


class Switch:
    """Per-destination egress ports plus the PFC pause machinery."""

    def __init__(self, sim: Simulator, net: NetConfig, cfg: CongestionConfig,
                 seed: int = 0):
        self.sim = sim
        self.net = net
        self.cfg = cfg
        self.rate = net.bandwidth_bytes_per_ns
        #: ECN draws come from a dedicated stream so enabling the switch
        #: never perturbs the fabric's loss/jitter RNG sequence.
        self.rng = random.Random(seed ^ 0x5317C4)
        self.ports: Dict[str, SwitchPort] = {}
        #: src node -> {port name: resume event} while PFC-paused.
        self._paused_srcs: Dict[str, Dict[str, Event]] = {}
        sim.register_component(self)

    # -- ports -----------------------------------------------------------

    def port_for(self, dst_name: str) -> SwitchPort:
        port = self.ports.get(dst_name)
        if port is None:
            port = SwitchPort(dst_name, self.rate)
            self.ports[dst_name] = port
        return port

    @property
    def total_drops(self) -> int:
        return sum(p.dropped_msgs for p in self.ports.values())

    @property
    def total_ecn_marks(self) -> int:
        return sum(p.ecn_marks for p in self.ports.values())

    @property
    def total_pause_events(self) -> int:
        return sum(p.pause_events for p in self.ports.values())

    def peak_depth_bytes(self) -> float:
        return max((p.peak_depth_bytes for p in self.ports.values()),
                   default=0.0)

    def report_metrics(self, metrics) -> None:
        """Report the port ledgers to a metrics registry at run end."""
        ports = self.ports.values()
        now = self.sim.now
        metrics.add("switch.msgs", sum(p.accepted_msgs for p in ports))
        metrics.add("switch.bytes", sum(p.accepted_bytes for p in ports))
        metrics.add("switch.drops", self.total_drops)
        metrics.add("switch.ecn_marks", self.total_ecn_marks)
        metrics.add("switch.pfc_pauses", self.total_pause_events)
        metrics.add("switch.pfc_resumes", sum(p.resume_events for p in ports))
        metrics.add("switch.queue_ns", sum(p.queue_wait_ns for p in ports))
        for port in ports:
            metrics.set("switch.port_depth", port.depth_bytes(now),
                        port=port.name)
            metrics.set("switch.port_utilization", port.utilization(now),
                        port=port.name)

    # -- PFC pause propagation -------------------------------------------

    def is_paused(self, src_name: str) -> bool:
        blocks = self._paused_srcs.get(src_name)
        if not blocks:
            return False
        live = {k: ev for k, ev in blocks.items() if not ev.triggered}
        if live:
            self._paused_srcs[src_name] = live
            return True
        del self._paused_srcs[src_name]
        return False

    def _assert_pause(self, port: SwitchPort, src_name: str) -> Event:
        """XOFF ``src_name`` until ``port`` drains below XON."""
        if port.resume_ev is None:
            port.paused = True
            port.pause_events += 1
            port.resume_ev = Event(self.sim)
            self.sim.spawn(self._resume_watch(port), name="pfc-resume",
                           detached=True)
        ev = port.resume_ev
        self._paused_srcs.setdefault(src_name, {})[port.name] = ev
        return ev

    def _resume_watch(self, port: SwitchPort) -> Generator[Event, None, None]:
        """XON once the backlog decays to the resume threshold.

        While a port is paused every new arrival is held at its pause
        check, so ``busy_until`` cannot grow — but the loop re-checks
        anyway in case thresholds make the crossing time move.
        """
        while True:
            target = port.busy_until - self.cfg.pfc_xon_bytes / self.rate
            if target <= self.sim.now:
                break
            yield self.sim.sleep(target - self.sim.now)
        port.paused = False
        port.resume_events += 1
        ev, port.resume_ev = port.resume_ev, None
        if ev is not None and not ev.triggered:
            ev.succeed()

    def ingress_wait(self, src_name: str,
                     span: Optional[Span] = None
                     ) -> Generator[Event, None, None]:
        """Block while ``src_name`` is PFC-paused by *any* egress port.

        This is the head-of-line blocking: a source paused because one
        of its flows feeds a congested port cannot transmit to idle
        destinations either.  The wait is recorded as an open
        ``pfc_pause`` interval so senders still paused at end of run keep
        their in-flight blocked time.
        """
        while self.is_paused(src_name):
            evs = [ev for ev in self._paused_srcs[src_name].values()
                   if not ev.triggered]
            if not evs:
                continue
            if span is not None:
                span.open("pfc_pause", self.sim.now)
            yield self.sim.all_of(evs)
            if span is not None:
                span.close("pfc_pause", self.sim.now)

    # -- the egress hop ---------------------------------------------------

    def _mark_probability(self, depth: float) -> float:
        cfg = self.cfg
        if depth < cfg.ecn_kmin_bytes:
            return 0.0
        if depth >= cfg.ecn_kmax_bytes:
            return 1.0
        span = max(cfg.ecn_kmax_bytes - cfg.ecn_kmin_bytes, 1)
        return cfg.ecn_pmax * (depth - cfg.ecn_kmin_bytes) / span

    def traverse(self, src_name: str, dst_name: str, wire_bytes: int,
                 span: Optional[Span] = None
                 ) -> Generator[Event, None, Tuple[bool, bool]]:
        """Carry one message through the egress port toward ``dst_name``.

        Returns ``(accepted, ecn_marked)``.  ``accepted`` is False only
        on tail drop (PFC off, buffer full); the caller decides whether
        that is a retransmission (RC) or a loss (UD).
        """
        yield from self.ingress_wait(src_name, span)
        port = self.port_for(dst_name)
        if self.cfg.pfc:
            # XOFF at arrival: above the pause threshold nothing more
            # enters this port; the source blocks for all destinations.
            while port.paused or port.depth_bytes(self.sim.now) \
                    >= self.cfg.pfc_xoff_bytes:
                ev = self._assert_pause(port, src_name)
                if span is not None:
                    span.open("pfc_pause", self.sim.now)
                yield ev
                if span is not None:
                    span.close("pfc_pause", self.sim.now)
                yield from self.ingress_wait(src_name, span)
        now = self.sim.now
        depth = port.depth_bytes(now)
        port.offered_msgs += 1
        port.offered_bytes += wire_bytes
        if not self.cfg.pfc and depth + wire_bytes > self.cfg.buffer_bytes:
            port.dropped_msgs += 1
            port.dropped_bytes += wire_bytes
            return False, False
        marked = False
        p = self._mark_probability(depth)
        if p >= 1.0 or (p > 0.0 and self.rng.random() < p):
            marked = True
            port.ecn_marks += 1
        wait = max(0.0, port.busy_until - now)
        port.busy_until = now + wait + wire_bytes / self.rate
        port.accepted_msgs += 1
        port.accepted_bytes += wire_bytes
        depth_after = depth + wire_bytes
        if depth_after > port.peak_depth_bytes:
            port.peak_depth_bytes = depth_after
        if wait > 0:
            port.queue_wait_ns += wait
            if span is not None:
                span.add_phase("switch_queue", now, now + wait)
            yield self.sim.sleep(wait)
        return True, marked
