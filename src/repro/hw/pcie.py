"""PCIe link between the RNIC and host memory.

Used for two things the paper cares about:

* fetching evicted connection state on an RNIC cache miss (the dominant
  cost at high QP counts), and
* DMA of completion-queue entries, which selective signaling (§7)
  suppresses for N-1 out of N work requests.

The link supports a bounded number of concurrent outstanding reads
(``slots``), modelling the NIC's finite number of PCIe tags; when all
slots are busy further fetches queue FIFO — which is what converts a high
miss *ratio* into a throughput *collapse*.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Event, Resource, Simulator

__all__ = ["PcieLink"]


class PcieLink:
    """A host<->NIC PCIe connection with bounded outstanding reads."""

    def __init__(self, sim: Simulator, read_latency_ns: float, slots: int,
                 name: str = "pcie"):
        if read_latency_ns < 0:
            raise ValueError("negative PCIe latency")
        self.sim = sim
        self.name = name
        self.read_latency_ns = read_latency_ns
        self._slots = Resource(sim, capacity=max(1, slots), name="pcie_slots")
        self.reads_issued = 0
        #: Time reads held a slot fetching state (the stall integral).
        self.busy_ns = 0.0
        #: Time reads waited for a free slot before fetching.
        self.queue_ns = 0.0
        sim.register_component(self)

    @property
    def outstanding(self) -> int:
        return self._slots.in_use

    @property
    def queued(self) -> int:
        return self._slots.queue_len

    def read(self, span=None) -> Generator[Event, None, None]:
        """Process-style: perform one PCIe read (state fetch).

        When ``span`` is given, the whole read — slot queueing plus the
        fetch itself — is recorded as a ``pcie_stall`` wait (the work the
        span traces cannot make progress until the state arrives).  The
        interval is opened *before* queueing so a read still stuck in the
        backlog when the run ends keeps its in-flight wait when the span
        is flushed.
        """
        self.reads_issued += 1
        queued_at = self.sim.now
        if span is not None:
            span.open("pcie_stall", queued_at)
        yield self._slots.acquire()
        try:
            self.queue_ns += self.sim.now - queued_at
            self.busy_ns += self.read_latency_ns
            yield self.sim.sleep(self.read_latency_ns)
        finally:
            self._slots.release()
        if span is not None:
            span.close("pcie_stall", self.sim.now)

    def report_metrics(self, metrics) -> None:
        """Report this link's ledgers to a metrics registry at run end."""
        metrics.add("pcie.reads", self.reads_issued)
        metrics.add("pcie.stall_ns", self.busy_ns)
        metrics.add("pcie.queue_ns", self.queue_ns)
