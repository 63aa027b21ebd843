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

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..baselines import UdEndpoint, UdRpcServer
from ..config import ClusterConfig, CongestionConfig, FlockConfig, NetConfig
from ..flock import FlockNode
from ..net import build_cluster
from ..sim import jitter_streams
from .metrics import Recorder, Run, RunResult, closed_loop
from .microbench import ECHO_RPC, _echo_handler

__all__ = ["IncastConfig", "flock_fan_in", "run_incast_flock",
           "run_incast_ud", "switch_extras"]


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


def switch_extras(fabric) -> dict:
    """Congestion-side observables for a fan-in leg's extras block."""
    sw = fabric.switch
    if sw is None:
        return {"congested": False}
    return {
        "congested": True,
        "pfc": sw.cfg.pfc,
        "buffer_bytes": sw.cfg.buffer_bytes,
        "peak_port_depth_bytes": round(sw.peak_depth_bytes(), 1),
        "switch_drops": sw.total_drops,
        "ecn_marks": sw.total_ecn_marks,
        "pfc_pauses": sw.total_pause_events,
        "cnps": fabric.cnps_delivered,
    }


def flock_fan_in(run: Run, cfg, congested: bool, flock_cfg: FlockConfig,
                 sizes: Sequence[int], thinks: Sequence[float],
                 system: str) -> Tuple[Recorder, dict, list, object]:
    """Every sender's FLock client -> one FLock echo server, run through
    ``run``'s window.

    ``cfg`` is an :class:`IncastConfig` or anything with its fields and
    ``cluster(congested)``; thread ``t`` of every client sends
    ``sizes[t]`` bytes and thinks up to ``thinks[t]`` ns between calls.
    Returns the recorder, the extras every fan-in leg reports (``system``,
    the mean coalescing degree and the server's CPU utilisation), the
    client handles and the fabric.
    """
    sim = run.sim
    servers, clients, fabric = build_cluster(sim, cfg.cluster(congested))
    server = FlockNode(sim, servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run, cfg.resp_size,
                                                  cfg.handler_ns))

    recorder = Recorder(sim)
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    handles = []
    for c_idx, node in enumerate(clients):
        fnode = FlockNode(sim, node, fabric, flock_cfg,
                          seed=cfg.seed + c_idx * 131)
        handle = fnode.fl_connect(server, n_qps=cfg.qps_per_handle)
        handles.append(handle)
        for t_idx in range(cfg.threads_per_client):
            args = (handle, t_idx, ECHO_RPC, sizes[t_idx])
            for _ in range(cfg.outstanding):
                sim.spawn(closed_loop(sim, recorder, fnode.fl_call, args,
                                      thinks[t_idx], next(jitter)),
                          name="fan-in-worker")

    run.window([recorder], fabric)
    degree = (sum(h.mean_coalescing_degree() for h in handles)
              / len(handles) if handles else 1.0)
    extras = {"system": system,
              "mean_coalescing_degree": round(degree, 3),
              "server_cpu": round(servers[0].cpu.utilization(), 3)}
    return recorder, extras, handles, fabric


def run_incast_flock(cfg: IncastConfig, *, congested: bool,
                     flock_cfg: Optional[FlockConfig] = None,
                     telemetry=None, audit: Optional[bool] = None
                     ) -> RunResult:
    """One FLock incast leg (all senders → one FLock server)."""
    run = Run("flock-incast %s" % ("cong" if congested else "base"),
              cfg.warmup_ns, cfg.measure_ns, telemetry=telemetry, audit=audit)
    if flock_cfg is None:
        flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                                thread_sched_interval_ns=150_000.0)
    threads = cfg.threads_per_client
    recorder, extras, handles, fabric = flock_fan_in(
        run, cfg, congested, flock_cfg, [cfg.req_size] * threads,
        [cfg.think_jitter_ns] * threads, "flock")
    extras["events"] = run.sim.events_processed
    # Kept as a constant: perf/references.json pins a digest of extras.
    extras["fidelity"] = "packet"
    extras.update(switch_extras(fabric))
    extras["throttled_qps"] = sum(
        1 for h in handles
        for st in h.congestion_stats(fabric).values() if st["cnps"] > 0)
    return run.finish(recorder.result(**extras))


def run_incast_ud(cfg: IncastConfig, *, congested: bool,
                  telemetry=None, audit: Optional[bool] = None) -> RunResult:
    """One UD-RPC incast leg (the HERD/eRPC design point)."""
    run = Run("ud-incast %s" % ("cong" if congested else "base"),
              cfg.warmup_ns, cfg.measure_ns, telemetry=telemetry, audit=audit)
    sim = run.sim
    servers, clients, fabric = build_cluster(sim, cfg.cluster(congested))
    server = UdRpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run, cfg.resp_size,
                                                    cfg.handler_ns))

    recorder = Recorder(sim)
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    endpoints = []
    for node in clients:
        for _t in range(cfg.threads_per_client):
            endpoint = UdEndpoint(sim, node, fabric,
                                  timeout_ns=cfg.ud_timeout_ns)
            args = (server, server.qp_for_client(len(endpoints)), ECHO_RPC,
                    cfg.req_size)
            endpoints.append(endpoint)
            for _ in range(cfg.outstanding):
                sim.spawn(closed_loop(sim, recorder, endpoint.call, args,
                                      cfg.think_jitter_ns, next(jitter)),
                          name="incast-worker")

    run.window([recorder], fabric)
    extras = {"fidelity": "packet", **switch_extras(fabric)}
    return run.finish(recorder.result(
        system="ud-rpc",
        lost_requests=sum(e.lost_requests for e in endpoints),
        pending_reassembly_bytes=sum(e.reassembler.pending_bytes
                                     for e in endpoints),
        server_cpu=round(servers[0].cpu.utilization(), 3),
        events=sim.events_processed,
        **extras,
    ))

