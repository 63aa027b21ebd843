"""Cluster nodes and the switched fabric connecting them.

The topology mirrors the paper's testbed (§8.1): every node has one
100 Gbps NIC, one hop through a single switch.  A message transfer is a
process: source-NIC processing (state lookup, rate limit, wire
serialization) → propagation → destination-NIC processing.  Packet loss
can be injected; reliable transports (RC) absorb it as a hardware
retransmission delay, unreliable ones surface it as a drop.

By default the switch is contention-free — concurrent transfers to the
same destination overlap for free, which is the regime every committed
figure baseline was calibrated against.  With
``NetConfig.congestion.enabled`` each transfer additionally crosses a
per-destination egress port with a finite output queue
(:mod:`repro.net.congestion`): queue buildup charges
``switch_queue`` wait time, triggers ECN marks that come back to the
sender as CNPs for DCQCN rate control, tail-drops past the buffer (RC
retransmits, UD loses the message), or — in PFC mode — pauses the
sending node entirely.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Iterable, Optional, Tuple

from ..config import ClusterConfig, CpuConfig, NetConfig, NicConfig
from ..hw import CpuMeter, HostMemory, Rnic
from ..obs.span import Span
from ..sim import Event, Simulator
from .congestion import DcqcnState, Switch

__all__ = ["Node", "Fabric", "build_cluster"]


class Node:
    """One machine: an RNIC, host memory, and metered CPU cores."""

    def __init__(self, sim: Simulator, name: str, nic_cfg: NicConfig,
                 cpu_cfg: CpuConfig, net_cfg: NetConfig):
        self.sim = sim
        self.name = name
        self.rnic = Rnic(sim, nic_cfg, net_cfg, name=name + ".rnic")
        self.memory = HostMemory()
        self.cpu = CpuMeter(sim, cpu_cfg.cores, name=name + ".cpu")
        self.cpu_cfg = cpu_cfg
        self._next_qpn = 1

    def alloc_qpn(self) -> int:
        qpn = self._next_qpn
        self._next_qpn += 1
        return qpn

    def __repr__(self) -> str:
        return "Node(%s)" % self.name


class Fabric:
    """The switch: moves messages between node NICs in virtual time."""

    def __init__(self, sim: Simulator, cfg: NetConfig, seed: int = 0):
        self.sim = sim
        self.cfg = cfg
        self.rng = random.Random(seed)
        #: Probability an individual *packet* is "lost" on the wire.
        self.loss_prob = 0.0
        #: Extra latency charged when RC hardware retransmits a lost packet.
        self.retransmit_ns = 12_000.0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Links in the fabric; set by :func:`build_cluster` to the node
        #: count so the aggregate utilization gauge normalises correctly.
        self.n_ports = 1
        self.congestion = cfg.congestion
        self.switch: Optional[Switch] = (
            Switch(sim, cfg, self.congestion, seed=seed)
            if self.congestion.enabled else None)
        #: DCQCN limiter per (src node, QP); only populated when the
        #: switch model and DCQCN are both on.
        self._dcqcn: Dict[Tuple[str, int], DcqcnState] = {}
        self.cnps_delivered = 0
        #: Transfers started, and their payload, on-the-wire bytes
        #: (payload plus per-packet headers) and MTU packets.
        self.messages_started = 0
        self.payload_bytes = 0
        self.wire_bytes = 0
        self.packets = 0
        #: Packets RC hardware resent (injected loss or switch drops).
        self.retransmits = 0
        sim.register_component(self)

    # -- congestion plumbing ----------------------------------------------

    @property
    def dcqcn_active(self) -> bool:
        return self.switch is not None and self.congestion.dcqcn_enabled

    def dcqcn_for(self, node_name: str, qpn: int) -> DcqcnState:
        """The rate-limiter state for one sending flow (lazily created)."""
        key = (node_name, qpn)
        state = self._dcqcn.get(key)
        if state is None:
            state = DcqcnState(self.congestion, self.cfg.bandwidth_bytes_per_ns)
            self._dcqcn[key] = state
        return state

    def _deliver_cnp(self, src_name: str, src_qpn: int
                     ) -> Generator[Event, None, None]:
        """Carry one congestion notification back to the sender's QP."""
        yield self.sim.timeout(self.cfg.propagation_ns)
        self.dcqcn_for(src_name, src_qpn).on_cnp(self.sim.now)
        self.cnps_delivered += 1

    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: int,
        src_qpn: int,
        dst_qpn: int,
        *,
        rkeys: Iterable[int] = (),
        reliable: bool = True,
        jitter_ns: float = 0.0,
        span: Optional[Span] = None,
    ) -> Generator[Event, None, bool]:
        """Move one message from ``src`` to ``dst``.

        Returns True if delivered; False if dropped (unreliable transport
        under injected loss or switch tail drop).  Reliable transfers
        always deliver but pay a retransmission delay per lost packet and
        per switch drop.  A carried ``span`` records ``nic_tx`` /
        ``switch_queue`` / ``propagation`` / ``nic_rx`` phases.
        """
        n_packets = src.rnic.packets_for(nbytes)
        wire_bytes = src.rnic.wire_bytes(nbytes)
        self.messages_started += 1
        self.payload_bytes += nbytes
        self.wire_bytes += wire_bytes
        self.packets += n_packets
        yield from src.rnic.tx_process(nbytes, src_qpn, rkeys, span=span)
        delay = self.cfg.propagation_ns + src.rnic.cfg.base_latency_ns
        if jitter_ns > 0:
            delay += self.rng.random() * jitter_ns
        if self.loss_prob > 0:
            # Loss is per packet: a multi-MTU message runs the gauntlet
            # once per MTU, so large transfers are proportionally more
            # exposed.  Any lost packet kills an unreliable message; RC
            # retransmits each lost packet individually.
            lost = sum(1 for _ in range(n_packets)
                       if self.rng.random() < self.loss_prob)
            if lost:
                if not reliable:
                    self.messages_dropped += 1
                    return False
                # RNIC-level retransmissions: invisible to software.
                delay += self.retransmit_ns * lost
                self.retransmits += lost
        marked = False
        if self.switch is not None:
            while True:
                accepted, marked = yield from self.switch.traverse(
                    src.name, dst.name, wire_bytes, span=span)
                if accepted:
                    break
                if not reliable:
                    self.messages_dropped += 1
                    return False
                # Tail drop on RC: hardware go-back-N resubmits the
                # message after the retransmission timeout.
                self.retransmits += 1
                yield self.sim.timeout(self.retransmit_ns)
        if span is not None:
            span.add_phase("propagation", self.sim.now, self.sim.now + delay)
        yield self.sim.timeout(delay)
        yield from dst.rnic.rx_process(nbytes, dst_qpn, rkeys, span=span)
        self.messages_delivered += 1
        if marked and reliable and self.dcqcn_active:
            # The receiver's CNP generator notifies the marked flow.
            self.sim.spawn(self._deliver_cnp(src.name, src_qpn),
                           name="cnp", detached=True)
        return True

    def report_metrics(self, metrics) -> None:
        """Report the fabric's ledgers to a metrics registry at run end."""
        metrics.add("net.messages", self.messages_started)
        metrics.add("net.payload_bytes", self.payload_bytes)
        metrics.add("net.wire_bytes", self.wire_bytes)
        metrics.add("net.header_bytes", self.wire_bytes - self.payload_bytes)
        metrics.add("net.packets", self.packets)
        metrics.add("net.drops", self.messages_dropped)
        metrics.add("net.retransmits", self.retransmits)
        metrics.add("net.cnps", self.cnps_delivered)
        # Aggregate utilization: wire bytes moved vs. the capacity of
        # all ports over elapsed virtual time.
        metrics.set("net.link_utilization",
                    self.wire_bytes / (self.cfg.bandwidth_bytes_per_ns
                                       * max(self.n_ports, 1)
                                       * max(self.sim.now, 1.0)))


def build_cluster(sim: Simulator, cfg: ClusterConfig):
    """Create (servers, clients, fabric) per a :class:`ClusterConfig`."""
    fabric = Fabric(sim, cfg.net, seed=cfg.seed)
    servers = [
        Node(sim, "server%d" % i, cfg.nic, cfg.cpu, cfg.net)
        for i in range(cfg.n_servers)
    ]
    clients = [
        Node(sim, "client%d" % i, cfg.nic, cfg.cpu, cfg.net)
        for i in range(cfg.n_clients)
    ]
    fabric.n_ports = len(servers) + len(clients)
    if fabric.switch is not None and fabric.congestion.pfc:
        # PFC reaches into the NIC: a paused node's transmit pipeline
        # stalls before serialization, for every destination.
        for node in servers + clients:
            node.rnic.tx_gate = _pfc_gate(fabric.switch, node.name)
    return servers, clients, fabric


def _pfc_gate(switch: Switch, node_name: str):
    """A tx-pipeline hook blocking while ``node_name`` is PFC-paused."""
    def gate(span=None):
        return switch.ingress_wait(node_name, span)
    return gate
