"""The RDMA NIC model.

One :class:`Rnic` per node.  It combines the pieces the paper's Fig. 1
identifies:

* a finite **connection cache** (QP contexts) and **translation cache**
  (MTT/MPT) backed over PCIe,
* a **processing pipeline** with a bounded message rate per direction,
* a **wire TX port** that serializes packets at link bandwidth, and
* **PCIe** for state fetches and completion DMA.

The verbs layer calls :meth:`tx_process` / :meth:`rx_process` around the
fabric hop; everything is expressed as process generators so the costs
compose in virtual time.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from ..config import NetConfig, NicConfig
from ..obs import faults
from ..obs.span import Span
from ..sim import Event, Resource, Simulator, TokenBucket
from .cache import LruCache
from .pcie import PcieLink

__all__ = ["Rnic"]


class Rnic:
    """Model of one RDMA-capable NIC."""

    def __init__(self, sim: Simulator, cfg: NicConfig, net: NetConfig, name: str = "rnic"):
        self.sim = sim
        self.cfg = cfg
        self.net = net
        self.name = name
        self.qp_cache = LruCache(cfg.qp_cache_entries)
        self.mtt_cache = LruCache(cfg.mtt_cache_entries)
        self.pcie = PcieLink(sim, cfg.cache_miss_ns, cfg.miss_slots,
                             name=name + ".pcie")
        self._tx_port = Resource(sim, capacity=1, name="tx_port")
        #: Optional transmit-pipeline gate installed by the fabric when
        #: PFC is on: ``tx_gate(span)`` yields a generator that blocks
        #: while this node is PAUSE-flow-controlled.  The stall happens
        #: before serialization, for every destination — head-of-line
        #: blocking at the NIC.
        self.tx_gate = None
        self._tx_bucket = TokenBucket(sim, cfg.message_rate, cfg.message_burst)
        self._rx_bucket = TokenBucket(sim, cfg.message_rate, cfg.message_burst)
        # Statistics.
        self.messages_tx = 0
        self.messages_rx = 0
        self.bytes_tx = 0
        self.packets_tx = 0
        self.cqes_generated = 0
        #: CQE DMAs counted in ``cqes_generated`` whose DMA latency has
        #: not elapsed yet (the CQ push happens right after it does) —
        #: the slack term in the CQE-conservation invariant.
        self.cqes_dma_pending = 0
        sim.register_component(self)

    # -- wire-format helpers --------------------------------------------

    def packets_for(self, nbytes: int) -> int:
        """Number of MTU-sized packets a message occupies."""
        if nbytes <= 0:
            return 1
        return (nbytes + self.net.mtu - 1) // self.net.mtu

    def wire_bytes(self, nbytes: int) -> int:
        """On-the-wire size including per-packet headers."""
        return nbytes + self.packets_for(nbytes) * self.net.per_packet_header_bytes

    def wire_time_ns(self, nbytes: int) -> float:
        return self.wire_bytes(nbytes) / self.net.bandwidth_bytes_per_ns

    # -- state-cache lookups ---------------------------------------------

    def _lookup(
        self, qpn: int, rkeys: Iterable[int],
        span: Optional[Span] = None,
    ) -> Generator[Event, None, None]:
        """Touch the QP context and any memory-translation entries.

        Misses stall on PCIe; concurrent misses contend for the bounded
        PCIe read slots, which is what converts thrashing into collapse.
        A carried ``span`` gets hit/miss annotations here and one
        ``pcie_stall`` wait per miss from :meth:`PcieLink.read`.
        """
        if self.qp_cache.access(("qp", qpn)):
            if span is not None:
                span.bump("qp_hits")
        else:
            if faults.ACTIVE and "rnic.double_count_miss" in faults.ACTIVE:
                self.qp_cache.stats.misses += 1
            if span is not None:
                span.bump("qp_misses")
            yield from self.pcie.read(span)
        for rkey in rkeys:
            if not self.mtt_cache.access(("mr", rkey)):
                if span is not None:
                    span.bump("mtt_misses")
                yield from self.pcie.read(span)

    # -- directional processing -------------------------------------------

    def tx_process(
        self, nbytes: int, qpn: int, rkeys: Iterable[int] = (),
        span: Optional[Span] = None,
    ) -> Generator[Event, None, None]:
        """NIC-side work to emit one message: state lookup, rate limit,
        and wire serialization (the TX port is held for the wire time).
        A carried ``span`` records a ``nic_tx`` interval around the
        ``pcie_stall``, ``nic_throttle``, ``tx_port`` and ``wire`` waits."""
        t0 = self.sim.now
        if self.tx_gate is not None:
            yield from self.tx_gate(span)
        yield from self._lookup(qpn, rkeys, span)
        delay = self._tx_bucket.delay_for()
        if delay > 0:
            if span is not None:
                span.add_phase("nic_throttle", self.sim.now,
                               self.sim.now + delay)
            yield self.sim.sleep(delay)
        wire = self.wire_time_ns(nbytes)
        yield self._tx_port.acquire(span)
        try:
            if span is not None:
                span.add_phase("wire", self.sim.now, self.sim.now + wire)
            yield self.sim.sleep(wire)
        finally:
            self._tx_port.release()
        self.messages_tx += 1
        self.bytes_tx += nbytes
        self.packets_tx += self.packets_for(nbytes)
        if span is not None:
            span.add_phase("nic_tx", t0, self.sim.now)

    def rx_process(
        self, nbytes: int, qpn: int, rkeys: Iterable[int] = (),
        span: Optional[Span] = None,
    ) -> Generator[Event, None, None]:
        """NIC-side work to land one inbound message."""
        t0 = self.sim.now
        delay = self._rx_bucket.delay_for()
        if delay > 0:
            if span is not None:
                span.add_phase("nic_throttle", self.sim.now,
                               self.sim.now + delay)
            yield self.sim.sleep(delay)
        yield from self._lookup(qpn, rkeys, span)
        self.messages_rx += 1
        if span is not None:
            span.add_phase("nic_rx", t0, self.sim.now)

    def cqe_dma(self) -> Generator[Event, None, None]:
        """DMA one completion entry to the host CQ (skipped when the work
        request is unsignaled; §7 selective signaling)."""
        self.cqes_generated += 1
        self.cqes_dma_pending += 1
        yield self.sim.sleep(self.cfg.cqe_dma_ns)
        self.cqes_dma_pending -= 1

    # -- reporting ---------------------------------------------------------

    def report_metrics(self, metrics) -> None:
        """Report this NIC's ledgers to a metrics registry at run end."""
        qs, ms = self.qp_cache.stats, self.mtt_cache.stats
        metrics.add("rnic.qp_cache.hits", qs.hits)
        metrics.add("rnic.qp_cache.misses", qs.misses)
        metrics.add("rnic.mtt_cache.hits", ms.hits)
        metrics.add("rnic.mtt_cache.misses", ms.misses)
        metrics.add("rnic.messages_tx", self.messages_tx)
        metrics.add("rnic.messages_rx", self.messages_rx)
        metrics.add("rnic.bytes_tx", self.bytes_tx)
        metrics.add("rnic.cqes", self.cqes_generated)
        metrics.set("rnic.qp_cache.evictions", qs.evictions, nic=self.name)
        metrics.set("rnic.mtt_cache.evictions", ms.evictions, nic=self.name)
        metrics.set("rnic.tx_port.occupancy", self._tx_port.in_use,
                    nic=self.name)
        metrics.set("rnic.pcie.outstanding", self.pcie.outstanding,
                    nic=self.name)

    def snapshot(self) -> dict:
        return {
            "messages_tx": self.messages_tx,
            "messages_rx": self.messages_rx,
            "bytes_tx": self.bytes_tx,
            "packets_tx": self.packets_tx,
            "qp_cache_miss_ratio": self.qp_cache.stats.miss_ratio,
            "pcie_reads": self.pcie.reads_issued,
            "cqes": self.cqes_generated,
        }
