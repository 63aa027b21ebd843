"""N→1 incast benchmark: FLock vs UD RPC under fabric congestion.

The experiment the congestion subsystem exists for: every sender targets
one receiver, so the switch's egress port toward the server becomes the
bottleneck.  Each system runs twice — once on the contention-free fabric
(its own baseline) and once with the switched-fabric model on — and the
headline number is *retention*: congested throughput over uncongested
throughput.  The expected shape (paper §4.1's motivation seen from the
fabric side) is that FLock retains more: coalescing puts ~an order of
magnitude fewer messages and fewer header bytes into the congested port,
RC absorbs tail drops as bounded hardware retransmissions, and DCQCN
paces senders before the queue overflows — while the UD baseline sends
one datagram per request, loses them to tail drops, and burns a full
application timeout per loss.

Request sizes default larger than the echo microbenchmarks (512 B): at
64 B the NIC message-rate limit, not the port, is the binding constraint
and no queue ever builds — see ``docs/network.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from ..baselines import UdEndpoint, UdRpcServer
from ..config import ClusterConfig, CongestionConfig, FlockConfig, NetConfig
from ..flock import FlockNode
from ..net import build_cluster
from ..sim import UniformStream
from .metrics import Recorder, Run, RunResult
from .microbench import ECHO_RPC, _echo_handler

__all__ = ["IncastConfig", "run_incast_flock", "run_incast_ud"]


@dataclass
class IncastConfig:
    """Knobs of the N→1 incast experiment."""

    #: Sender nodes, all targeting the single server (the paper's
    #: testbed shape: 23→1 at full fan-in; 16 keeps runs affordable).
    n_senders: int = 12
    threads_per_client: int = 6
    outstanding: int = 2
    #: RC QPs per FLock handle.  Small on purpose: threads must *share*
    #: QPs for the combiner to batch (degree ~ threads/QP), and a small
    #: flow count lets DCQCN converge (32 flows at the 1 Gbps floor fit
    #: under the 100 Gbps port; one flow per thread would not).
    qps_per_handle: int = 2
    #: Large enough that the egress port (12.5 B/ns), not the NIC
    #: message-rate cap, is the bottleneck under fan-in.
    req_size: int = 512
    resp_size: int = 64
    handler_ns: float = 100.0
    think_jitter_ns: float = 200.0
    warmup_ns: float = 300_000.0
    measure_ns: float = 500_000.0
    seed: int = 1
    #: UD applications must recover losses themselves, and kernel-bypass
    #: RTOs are coarse — eRPC's is 5 ms, orders beyond the fabric RTT.
    #: A worker whose request is tail-dropped stalls this long before
    #: retrying, which is the classic incast timeout collapse: the
    #: synchronized first burst overflows the shallow buffer and the
    #: victims sit out the rest of the window while the port idles.
    ud_timeout_ns: float = 5_000_000.0
    #: Template for the *congested* legs; the baseline legs force it off.
    #: The buffer is shallow (32 KB per port, Collie's anomaly regime) —
    #: the closed-loop inventory of this workload must exceed it, or
    #: nothing ever drops and the DCQCN-vs-no-congestion-control
    #: comparison has no teeth.
    congestion: CongestionConfig = field(
        default_factory=lambda: CongestionConfig(
            enabled=True, buffer_bytes=10_240,
            ecn_kmin_bytes=2_560, ecn_kmax_bytes=7_680,
            pfc_xoff_bytes=7_680, pfc_xon_bytes=2_560))

    def __post_init__(self):
        if self.think_jitter_ns < 0:
            raise ValueError("think_jitter_ns must be >= 0, got %r"
                             % (self.think_jitter_ns,))

    def cluster(self, congested: bool) -> ClusterConfig:
        if congested:
            cong = replace(self.congestion, enabled=True)
        else:
            cong = replace(self.congestion, enabled=False, pfc=False)
        return ClusterConfig(
            n_clients=self.n_senders, seed=self.seed,
            net=replace(NetConfig(), congestion=cong))


def _switch_extras(fabric) -> dict:
    """Congestion-side observables for the run's extras block."""
    sw = fabric.switch
    # Kept as a constant: perf/references.json pins a digest of extras.
    extras = {"fidelity": "packet"}
    if sw is None:
        extras["congested"] = False
        return extras
    extras.update({
        "congested": True,
        "pfc": sw.cfg.pfc,
        "buffer_bytes": sw.cfg.buffer_bytes,
        "peak_port_depth_bytes": round(sw.peak_depth_bytes(), 1),
        "switch_drops": sw.total_drops,
        "ecn_marks": sw.total_ecn_marks,
        "pfc_pauses": sw.total_pause_events,
        "cnps": fabric.cnps_delivered,
    })
    return extras


def run_incast_flock(cfg: IncastConfig, *, congested: bool,
                     flock_cfg: Optional[FlockConfig] = None,
                     telemetry=None, audit: Optional[bool] = None
                     ) -> RunResult:
    """One FLock incast leg (all senders → one FLock server)."""
    run = Run("flock-incast %s" % ("cong" if congested else "base"),
              cfg.warmup_ns, cfg.measure_ns, telemetry=telemetry, audit=audit)
    sim = run.sim
    servers, clients, fabric = build_cluster(sim, cfg.cluster(congested))
    if flock_cfg is None:
        flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                                thread_sched_interval_ns=150_000.0)
    server = FlockNode(sim, servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(
        cfg.resp_size, cfg.handler_ns, sim, run.warmup + run.measure / 2))

    recorder = Recorder(sim)
    jitter_rng = random.Random(cfg.seed ^ 0x7EA)
    handles = []

    def worker(fnode, handle, thread_id, rng):
        while True:
            if cfg.think_jitter_ns > 0:
                yield sim.timeout(rng.random() * cfg.think_jitter_ns)
            started = sim.now
            yield from fnode.fl_call(handle, thread_id, ECHO_RPC,
                                     cfg.req_size)
            recorder.record(started)

    for c_idx, node in enumerate(clients):
        fnode = FlockNode(sim, node, fabric, flock_cfg,
                          seed=cfg.seed + c_idx * 131)
        handle = fnode.fl_connect(server, n_qps=cfg.qps_per_handle)
        handles.append(handle)
        for t_idx in range(cfg.threads_per_client):
            for _ in range(cfg.outstanding):
                rng = UniformStream(jitter_rng.getrandbits(48))
                sim.spawn(worker(fnode, handle, t_idx, rng),
                          name="incast-worker")

    run.window([recorder], fabric)
    degree = (sum(h.mean_coalescing_degree() for h in handles)
              / len(handles) if handles else 1.0)
    extras = _switch_extras(fabric)
    extras["throttled_qps"] = sum(
        1 for h in handles
        for st in h.congestion_stats(fabric).values() if st["cnps"] > 0)
    return run.finish(recorder.result(
        system="flock",
        mean_coalescing_degree=round(degree, 3),
        server_cpu=round(servers[0].cpu.utilization(), 3),
        events=sim.events_processed,
        **extras,
    ))


def run_incast_ud(cfg: IncastConfig, *, congested: bool,
                  telemetry=None, audit: Optional[bool] = None) -> RunResult:
    """One UD-RPC incast leg (the HERD/eRPC design point)."""
    run = Run("ud-incast %s" % ("cong" if congested else "base"),
              cfg.warmup_ns, cfg.measure_ns, telemetry=telemetry, audit=audit)
    sim = run.sim
    servers, clients, fabric = build_cluster(sim, cfg.cluster(congested))
    server = UdRpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(
        cfg.resp_size, cfg.handler_ns, sim, run.warmup + run.measure / 2))

    recorder = Recorder(sim)
    jitter_rng = random.Random(cfg.seed ^ 0x7EA)
    endpoints = []
    endpoint_counter = [0]

    def worker(endpoint, server_qp, rng):
        while True:
            if cfg.think_jitter_ns > 0:
                yield sim.timeout(rng.random() * cfg.think_jitter_ns)
            started = sim.now
            response = yield from endpoint.call(server, server_qp, ECHO_RPC,
                                                cfg.req_size)
            if response is not None:
                recorder.record(started)

    for node in clients:
        for _t in range(cfg.threads_per_client):
            endpoint = UdEndpoint(sim, node, fabric,
                                  timeout_ns=cfg.ud_timeout_ns)
            server_qp = server.qp_for_client(endpoint_counter[0])
            endpoint_counter[0] += 1
            endpoints.append(endpoint)
            for _ in range(cfg.outstanding):
                rng = UniformStream(jitter_rng.getrandbits(48))
                sim.spawn(worker(endpoint, server_qp, rng),
                          name="incast-worker")

    run.window([recorder], fabric)
    extras = _switch_extras(fabric)
    return run.finish(recorder.result(
        system="ud-rpc",
        lost_requests=sum(e.lost_requests for e in endpoints),
        pending_reassembly_bytes=sum(e.reassembler.pending_bytes
                                     for e in endpoints),
        server_cpu=round(servers[0].cpu.utilization(), 3),
        events=sim.events_processed,
        **extras,
    ))

