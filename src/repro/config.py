"""Calibration constants for the simulated RDMA stack.

All times are **nanoseconds**, all sizes **bytes**, all rates **per ns**.
The defaults are calibrated so the motivation experiments (paper Fig. 2)
land in the same regime as the paper's ConnectX-5 measurements: RC read
throughput peaking around 40 Mops in the 176-704 QP window and collapsing
beyond it, and UD RPC saturating near 30 Mops on server CPU.

Every experiment builds its own config objects, so benchmarks can ablate a
single constant without touching global state.  The few run knobs read
from the environment (``docs/observability.md``, "Run knobs") are
instruments, not model constants; :func:`env_flag` parses the boolean
ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "NicConfig",
    "CpuConfig",
    "CongestionConfig",
    "NetConfig",
    "FlockConfig",
    "ClusterConfig",
    "env_flag",
]

GBPS = 1.0 / 8.0  # bytes per ns per Gbps

_FLAG_ON = ("1", "true", "yes", "on")
_FLAG_OFF = ("0", "false", "no", "off", "")


def env_flag(name: str, default: bool = False) -> bool:
    """Parse the boolean run knob ``name`` from the environment.

    ``1/true/yes/on`` is True, ``0/false/no/off`` or empty is False, and
    an unset variable yields ``default``.  Anything else raises
    ValueError: a typo must not silently switch an instrument on or off.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _FLAG_ON:
        return True
    if value in _FLAG_OFF:
        return False
    raise ValueError("%s=%r is not a boolean (use 1/0, true/false, "
                     "yes/no or on/off)" % (name, raw))


def _require(cond: bool, msg: str) -> None:
    """Config-construction invariant; raises ValueError on violation.

    Scenario configs (:mod:`repro.search`) derive these knobs
    programmatically, so every constructor-reachable field that can
    brick a run (zero-sized cache, inverted PFC thresholds, negative
    costs) is validated here rather than failing deep inside the
    simulator.
    """
    if not cond:
        raise ValueError(msg)

#: Paper Table 1 / §8.1: MTU used across all nodes.
DEFAULT_MTU = 4096

#: Paper §2.1: maximum RC/UC message size is 2 GB.
RC_MAX_MSG = 2 * 1024 * 1024 * 1024


@dataclass
class NicConfig:
    """RNIC model parameters (one per node).

    The connection-state cache (QP context + MTT/MPT) is the crux of the
    paper's motivation: once the working set of QPs exceeds
    ``qp_cache_entries``, every touched QP costs a PCIe fetch that stalls
    one of ``miss_slots`` pipeline slots for ``cache_miss_ns``.
    """

    #: Messages/ns the RNIC can process per direction (42 Mops = ConnectX-5
    #: small-message regime as observed in Fig. 2a's peak).
    message_rate: float = 42e-3
    #: Burst allowance for the rate limiter (messages).
    message_burst: float = 32.0
    #: QP contexts the NIC cache holds before thrashing (Fig. 2a knee).
    qp_cache_entries: int = 560
    #: PCIe round trip to fetch evicted QP state (paper §2.2: "several
    #: microseconds" worst case; 750 ns models a warm host cache line).
    cache_miss_ns: float = 750.0
    #: Concurrent in-flight cache-miss fetches the NIC pipeline sustains.
    miss_slots: int = 8
    #: Memory-translation entries cached (MTT/MPT); a miss costs the same
    #: PCIe fetch.  Large enough by default that only experiments that
    #: register many regions exercise it.
    mtt_cache_entries: int = 4096
    #: Fixed per-message NIC latency (DMA setup, pipeline traversal).
    base_latency_ns: float = 250.0
    #: Extra latency for generating a completion entry (DMA write of CQE).
    cqe_dma_ns: float = 30.0

    def __post_init__(self):
        _require(self.message_rate > 0, "message_rate must be > 0")
        _require(self.message_burst > 0, "message_burst must be > 0")
        _require(self.qp_cache_entries >= 1, "qp_cache_entries must be >= 1")
        _require(self.mtt_cache_entries >= 1, "mtt_cache_entries must be >= 1")
        _require(self.miss_slots >= 1, "miss_slots must be >= 1")
        _require(self.cache_miss_ns >= 0, "cache_miss_ns must be >= 0")
        _require(self.base_latency_ns >= 0, "base_latency_ns must be >= 0")
        _require(self.cqe_dma_ns >= 0, "cqe_dma_ns must be >= 0")


@dataclass
class CpuConfig:
    """Per-node CPU cost model.

    These constants charge virtual time for the software operations the
    paper identifies as the UD bottleneck (§2.2: ``ibv_post_recv`` recycle
    and ``ibv_poll_cq``) and for FLock's cheaper memory polling.
    """

    cores: int = 32
    #: Cost of one MMIO doorbell (posting a work request batch).
    mmio_ns: float = 90.0
    #: Successful completion-queue poll (per CQE reaped).
    cq_poll_ns: float = 60.0
    #: Recycling one UD receive buffer (ibv_post_recv).
    ud_recv_recycle_ns: float = 150.0
    #: Per-message UD header/transport processing in software (eRPC-style
    #: reliability + congestion control bookkeeping).
    ud_sw_transport_ns: float = 350.0
    #: Detecting one coalesced message by polling a ring buffer (FLock).
    ring_poll_ns: float = 80.0
    #: Additional scan cost per extra ring buffer a server worker watches
    #: (the no-sharing config polls many more rings; §8.3.1).
    ring_scan_per_qp_ns: float = 6.0
    #: Decoding one request out of a coalesced message.
    decode_ns: float = 40.0
    #: Copying payload into a combining buffer, per byte.
    copy_ns_per_byte: float = 0.035
    #: Fixed per-request client-side send-path cost (marshalling).
    marshal_ns: float = 45.0
    #: Building a coalesced message header + canary.
    header_build_ns: float = 50.0
    #: The leader polling one follower's copy-completion flag before it
    #: posts a coalesced message (FLock, §4.2).
    follower_flag_poll_ns: float = 20.0
    #: The client's response dispatcher handing one entry of a coalesced
    #: response to its waiting thread (FLock).
    response_entry_ns: float = 25.0
    #: The QP scheduler computing one credit grant, beyond the CQ poll
    #: that found the renewal request (FLock, §5.1).
    renewal_grant_ns: float = 60.0

    def __post_init__(self):
        _require(self.cores >= 1, "cores must be >= 1")
        for name in ("mmio_ns", "cq_poll_ns", "ud_recv_recycle_ns",
                     "ud_sw_transport_ns", "ring_poll_ns",
                     "ring_scan_per_qp_ns", "decode_ns", "copy_ns_per_byte",
                     "marshal_ns", "header_build_ns", "follower_flag_poll_ns",
                     "response_entry_ns", "renewal_grant_ns"):
            _require(getattr(self, name) >= 0, "%s must be >= 0" % name)


@dataclass
class CongestionConfig:
    """Switched-fabric congestion model (RoCE on a shallow-buffer ToR).

    Off by default: the contention-free point-to-point fabric is what
    every committed figure baseline was calibrated against.  When
    enabled, every transfer crosses a per-destination egress port with a
    finite output buffer served at link rate; queue buildup triggers
    ECN marking (RED-style) and a DCQCN rate limiter per RC QP, or —
    with ``pfc`` — lossless PAUSE propagation with head-of-line blocking.
    Thresholds are bytes of egress-queue depth.
    """

    enabled: bool = False
    #: Per-egress-port output buffer (shallow ToR class, per port).
    buffer_bytes: int = 131_072
    #: RED/ECN marking ramp: mark probability rises linearly from 0 at
    #: ``ecn_kmin_bytes`` to ``ecn_pmax`` at ``ecn_kmax_bytes`` (and is 1
    #: beyond it) — the DCQCN paper's Kmin/Kmax/Pmax.  Pmax is small as
    #: in real deployments: per-packet CNPs at queue depths the fabric
    #: can absorb would collapse sender rates far below the port rate.
    ecn_kmin_bytes: int = 32_768
    ecn_kmax_bytes: int = 98_304
    ecn_pmax: float = 0.05
    #: Priority flow control: pause the upstream sender when a port
    #: crosses ``pfc_xoff_bytes``, resume below ``pfc_xon_bytes``.
    #: Lossless — the buffer stretches into headroom instead of dropping.
    pfc: bool = False
    pfc_xoff_bytes: int = 98_304
    pfc_xon_bytes: int = 32_768
    #: DCQCN sender reaction (per RC QP): rate cut on CNP, then fast
    #: recovery / additive increase / hyper increase.  Timers are scaled
    #: to the simulator's sub-millisecond measurement windows.
    dcqcn_enabled: bool = True
    #: EWMA gain for the congestion estimate alpha.
    dcqcn_g: float = 1.0 / 16.0
    #: Minimum gap between consecutive rate cuts.
    dcqcn_rate_decrease_interval_ns: float = 8_000.0
    #: Interval between rate-increase stages while no CNP arrives.
    dcqcn_recovery_interval_ns: float = 4_000.0
    #: Fast-recovery stages (Rc converges back toward Rt) before
    #: additive increase begins.
    dcqcn_fast_recovery_steps: int = 3
    #: Additive / hyper rate-increase steps (bytes per ns).
    dcqcn_rate_ai_bytes_per_ns: float = 5 * GBPS
    dcqcn_rate_hai_bytes_per_ns: float = 25 * GBPS
    #: Floor for the per-QP sending rate.
    dcqcn_min_rate_bytes_per_ns: float = 1 * GBPS

    def __post_init__(self):
        _require(self.buffer_bytes >= 1, "buffer_bytes must be >= 1")
        # Kmin/Kmax may exceed the buffer (that just disables marking for
        # the lossy queue), but the ramp itself must be ordered.
        _require(0 < self.ecn_kmin_bytes <= self.ecn_kmax_bytes,
                 "need 0 < ecn_kmin_bytes <= ecn_kmax_bytes")
        _require(0.0 <= self.ecn_pmax <= 1.0, "ecn_pmax must be in [0, 1]")
        _require(0 < self.pfc_xon_bytes <= self.pfc_xoff_bytes,
                 "need 0 < pfc_xon_bytes <= pfc_xoff_bytes")
        _require(self.dcqcn_g > 0, "dcqcn_g must be > 0")
        _require(self.dcqcn_rate_decrease_interval_ns > 0,
                 "dcqcn_rate_decrease_interval_ns must be > 0")
        _require(self.dcqcn_recovery_interval_ns > 0,
                 "dcqcn_recovery_interval_ns must be > 0")
        _require(self.dcqcn_fast_recovery_steps >= 0,
                 "dcqcn_fast_recovery_steps must be >= 0")
        _require(self.dcqcn_rate_ai_bytes_per_ns > 0,
                 "dcqcn_rate_ai_bytes_per_ns must be > 0")
        _require(self.dcqcn_rate_hai_bytes_per_ns > 0,
                 "dcqcn_rate_hai_bytes_per_ns must be > 0")
        _require(self.dcqcn_min_rate_bytes_per_ns > 0,
                 "dcqcn_min_rate_bytes_per_ns must be > 0")


@dataclass
class NetConfig:
    """Fabric model: 100 Gbps links through a single switch."""

    bandwidth_bytes_per_ns: float = 100 * GBPS
    #: One-way propagation incl. switch traversal.
    propagation_ns: float = 600.0
    #: Wire overhead per packet (RoCEv2 headers + FCS).
    per_packet_header_bytes: int = 60
    mtu: int = DEFAULT_MTU
    #: Jitter bound for UD packet delivery (models possible reordering).
    ud_jitter_ns: float = 120.0
    #: Switched-fabric congestion model (default off: point-to-point).
    congestion: CongestionConfig = field(default_factory=CongestionConfig)

    def __post_init__(self):
        _require(self.bandwidth_bytes_per_ns > 0,
                 "bandwidth_bytes_per_ns must be > 0")
        _require(self.propagation_ns >= 0, "propagation_ns must be >= 0")
        _require(self.per_packet_header_bytes >= 0,
                 "per_packet_header_bytes must be >= 0")
        _require(self.mtu >= 1, "mtu must be >= 1")
        _require(self.ud_jitter_ns >= 0, "ud_jitter_ns must be >= 0")


@dataclass
class FlockConfig:
    """FLock protocol parameters (paper §4-§6 defaults)."""

    #: Maximum QPs the receiver keeps active (paper: 256).
    max_aqp: int = 256
    #: Credits granted per batch (paper: C = 32).
    credit_batch: int = 32
    #: Renew when remaining credits drop to half the batch.
    credit_renew_threshold: int = 16
    #: Bound on requests a leader coalesces per cycle (leader progress).
    max_combine: int = 16
    #: Bound on the wire size of one coalesced message.
    max_combine_bytes: int = 4096
    #: QP scheduler redistribution interval.
    sched_interval_ns: float = 1_000_000.0
    #: Sender-side thread scheduler interval.
    thread_sched_interval_ns: float = 1_000_000.0
    #: Ring buffer capacity per QP, in coalesced messages.
    ring_slots: int = 128
    #: Ring buffer capacity per QP, in bytes (the Fig. 5 ring is a
    #: contiguous byte buffer, so large payloads consume more of it).
    ring_bytes: int = 16384
    #: QPs created per connection handle (the pool multiplexed by FLock).
    qps_per_handle: int = 64
    #: Selective signaling: one signaled WR out of N.
    signal_every: int = 16

    def __post_init__(self):
        _require(self.max_aqp >= 1, "max_aqp must be >= 1")
        _require(self.credit_batch >= 1, "credit_batch must be >= 1")
        _require(0 <= self.credit_renew_threshold <= self.credit_batch,
                 "need 0 <= credit_renew_threshold <= credit_batch")
        _require(self.max_combine >= 1, "max_combine must be >= 1")
        _require(self.max_combine_bytes >= 1, "max_combine_bytes must be >= 1")
        _require(self.sched_interval_ns > 0, "sched_interval_ns must be > 0")
        _require(self.thread_sched_interval_ns > 0,
                 "thread_sched_interval_ns must be > 0")
        _require(self.ring_slots >= 1, "ring_slots must be >= 1")
        _require(self.ring_bytes >= 1, "ring_bytes must be >= 1")
        _require(self.qps_per_handle >= 1, "qps_per_handle must be >= 1")
        _require(self.signal_every >= 1, "signal_every must be >= 1")


@dataclass
class ClusterConfig:
    """A full experiment topology plus all hardware configs."""

    n_clients: int = 23
    n_servers: int = 1
    seed: int = 1
    nic: NicConfig = field(default_factory=NicConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    net: NetConfig = field(default_factory=NetConfig)
    flock: FlockConfig = field(default_factory=FlockConfig)

    def __post_init__(self):
        _require(self.n_clients >= 1, "n_clients must be >= 1")
        _require(self.n_servers >= 1, "n_servers must be >= 1")
