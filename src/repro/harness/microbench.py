"""Microbenchmark runners (paper Figs. 2, 6-12).

Each function builds a fresh cluster, spawns closed-loop client workers,
runs a warmup long enough for FLock's schedulers to converge, measures a
virtual-time window, and returns a :class:`RunResult` in paper units.
The run lifecycle (simulator, instruments, windows scaled by
``REPRO_BENCH_SCALE``) is :class:`repro.harness.metrics.Run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..baselines import (
    ErpcEndpoint,
    ErpcServer,
    RcRpcClient,
    RcRpcServer,
    ReadClient,
    UdEndpoint,
    UdRpcServer,
)
from ..config import ClusterConfig, FlockConfig
from ..flock import FlockNode, TenantManager
from ..net import build_cluster
from ..obs import faults
from ..obs.anomaly import detect_run_anomalies
from ..sim import jitter_streams
from ..workloads import FixedSize
from .metrics import Recorder, Run, RunResult, closed_loop, host_block

__all__ = [
    "MicrobenchConfig",
    "run_flock",
    "run_erpc",
    "run_multitenancy",
    "run_rc",
    "run_thread_sched",
    "run_raw_reads",
    "run_ud_rpc",
]

ECHO_RPC = 1


@dataclass
class MicrobenchConfig:
    """Shared knobs of the RPC microbenchmarks."""

    n_clients: int = 23
    threads_per_client: int = 16
    outstanding: int = 1
    #: Client processes per node (Fig. 12 runs up to 16).
    processes_per_client: int = 1
    req_size: int = 64
    resp_size: int = 64
    #: Server-side application work per request.
    handler_ns: float = 100.0
    #: Per-iteration client think-time jitter (uniform [0, x) ns): real
    #: application threads never re-issue in perfect lockstep, which
    #: keeps coalescing degrees realistic instead of phase-locked.
    think_jitter_ns: float = 300.0
    warmup_ns: float = 600_000.0
    measure_ns: float = 500_000.0
    seed: int = 1
    #: Optional per-thread size generator (Fig. 11); overrides req_size.
    sizegen: Optional[object] = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self):
        if self.think_jitter_ns < 0:
            raise ValueError("think_jitter_ns must be >= 0, got %r"
                             % (self.think_jitter_ns,))

    def make_sizegen(self):
        return self.sizegen if self.sizegen is not None else FixedSize(self.req_size)


#: ``bench.step_handler_cost`` multiplies the server handler cost by
#: this factor from the middle of the measurement window on — a
#: manufactured mid-run latency changepoint the anomaly detectors must
#: catch (and tier-1 proves they do, while staying silent on the clean
#: twin run).
STEP_FAULT_FACTOR = 25.0


def _echo_handler(run: Run, resp_size: int, handler_ns: float):
    """The echo RPC handler: ``resp_size`` bytes back for ``handler_ns``
    of server CPU, stepped up under ``bench.step_handler_cost``."""
    if faults.is_active("bench.step_handler_cost"):
        sim = run.sim
        step_at_ns = run.warmup + run.measure / 2

        def faulty_handler(request):
            if sim.now >= step_at_ns:
                return resp_size, None, handler_ns * STEP_FAULT_FACTOR
            return resp_size, None, handler_ns
        return faulty_handler

    def handler(request):
        return resp_size, None, handler_ns
    return handler


# ---------------------------------------------------------------------------
# FLock (Figs. 6-12)
# ---------------------------------------------------------------------------

def run_flock(cfg: MicrobenchConfig, *, qps_per_process: Optional[int] = None,
              coalescing: bool = True, thread_scheduling: bool = True,
              flock_cfg: Optional[FlockConfig] = None,
              telemetry=None, audit: Optional[bool] = None,
              profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over FLock."""
    run = Run("flock", cfg.warmup_ns, cfg.measure_ns, telemetry=telemetry,
              audit=audit, profile=profile)
    sim = run.sim
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    if flock_cfg is None:
        # Fast scheduler convergence for short measurement windows.
        flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                                thread_sched_interval_ns=150_000.0)
    server = FlockNode(sim, servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run, cfg.resp_size,
                                                  cfg.handler_ns))

    recorder = Recorder(sim)
    sizegen = cfg.make_sizegen()
    n_qps = qps_per_process or cfg.threads_per_client
    handles = []
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    for c_idx, node in enumerate(clients):
        for p_idx in range(cfg.processes_per_client):
            fnode = FlockNode(sim, node, fabric, flock_cfg,
                              seed=cfg.seed + c_idx * 131 + p_idx)
            fnode.client.coalescing_enabled = coalescing
            fnode.client.thread_scheduling_enabled = thread_scheduling
            handle = fnode.fl_connect(server, n_qps=n_qps)
            handles.append(handle)
            for t_idx in range(cfg.threads_per_client):
                args = (handle, t_idx, ECHO_RPC, sizegen.next(t_idx))
                for _ in range(cfg.outstanding):
                    sim.spawn(closed_loop(sim, recorder, fnode.fl_call, args,
                                          cfg.think_jitter_ns, next(jitter)),
                              name="bench-worker")

    run.window([recorder], fabric)
    degree = (sum(h.mean_coalescing_degree() for h in handles) / len(handles)
              if handles else 1.0)
    return run.finish(recorder.result(
        system="flock",
        mean_coalescing_degree=round(degree, 3),
        active_qps=server.server.total_active_qps,
        server_cpu=round(servers[0].cpu.utilization(), 3),
        server_net_frac=round(servers[0].cpu.network_fraction(), 3),
        qp_cache_miss=round(servers[0].rnic.qp_cache.stats.miss_ratio, 4),
        events=sim.events_processed,
    ))


# ---------------------------------------------------------------------------
# eRPC (Figs. 6-8, 16-18 baseline)
# ---------------------------------------------------------------------------

def run_erpc(cfg: MicrobenchConfig, *, telemetry=None,
             audit: Optional[bool] = None,
             profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over the eRPC-like UD baseline."""
    run = Run("erpc", cfg.warmup_ns, cfg.measure_ns, telemetry=telemetry,
              audit=audit, profile=profile)
    sim = run.sim
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    server = ErpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run, cfg.resp_size,
                                                    cfg.handler_ns))

    recorder = Recorder(sim)
    sizegen = cfg.make_sizegen()
    n_endpoints = 0
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    for node in clients:
        for _p in range(cfg.processes_per_client):
            for t_idx in range(cfg.threads_per_client):
                endpoint = ErpcEndpoint(sim, node, fabric)
                args = (server, server.qp_for_client(n_endpoints), ECHO_RPC,
                        sizegen.next(t_idx))
                n_endpoints += 1
                for _ in range(cfg.outstanding):
                    sim.spawn(closed_loop(sim, recorder, endpoint.call, args,
                                          cfg.think_jitter_ns, next(jitter)),
                              name="erpc-worker")

    run.window([recorder], fabric)
    return run.finish(recorder.result(
        system="erpc",
        server_cpu=round(servers[0].cpu.utilization(), 3),
        server_net_frac=round(servers[0].cpu.network_fraction(), 3),
        recv_drops=server.recv_drops,
        events=sim.events_processed,
    ))


# ---------------------------------------------------------------------------
# RC sharing baselines: no-sharing / FaRM-style spinlock (Fig. 9)
# ---------------------------------------------------------------------------

def run_rc(cfg: MicrobenchConfig, *, threads_per_qp: int = 1,
           telemetry=None, audit: Optional[bool] = None,
           profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over RC write-based RPC without coalescing.

    ``threads_per_qp=1`` is the dedicated-QP (no sharing) config;
    2 or 4 is FaRM-like spinlock sharing.
    """
    run = Run("rc-%dtpq" % threads_per_qp, cfg.warmup_ns, cfg.measure_ns,
              telemetry=telemetry, audit=audit, profile=profile)
    sim = run.sim
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    server = RcRpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run, cfg.resp_size,
                                                    cfg.handler_ns))

    recorder = Recorder(sim)
    sizegen = cfg.make_sizegen()
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    for node in clients:
        rc_client = RcRpcClient(sim, node, fabric)
        n_qps = max(1, (cfg.threads_per_client + threads_per_qp - 1)
                    // threads_per_qp)
        handle = rc_client.connect(server, n_qps=n_qps,
                                   threads_per_qp=threads_per_qp)
        for t_idx in range(cfg.threads_per_client):
            args = (handle, t_idx, ECHO_RPC, sizegen.next(t_idx))
            for _ in range(cfg.outstanding):
                sim.spawn(closed_loop(sim, recorder, rc_client.call, args,
                                      cfg.think_jitter_ns, next(jitter)),
                          name="rc-worker")

    run.window([recorder], fabric)
    return run.finish(recorder.result(
        system="rc-%dtpq" % threads_per_qp,
        server_cpu=round(servers[0].cpu.utilization(), 3),
        qp_cache_miss=round(servers[0].rnic.qp_cache.stats.miss_ratio, 4),
        events=sim.events_processed,
    ))


# ---------------------------------------------------------------------------
# Sender-side thread scheduling under mixed payloads (Fig. 11)
# ---------------------------------------------------------------------------

def run_thread_sched(cfg: MicrobenchConfig, *, scheduling: bool,
                     telemetry=None, audit: Optional[bool] = None,
                     profile: Optional[bool] = None) -> Dict[str, object]:
    """FLock echo RPCs over a mixed-size workload (``cfg.sizegen``, a
    :class:`BimodalSize`), with thread scheduling on or off.  Each client
    connects half as many QPs as it has threads.

    The windows are ``cfg``'s, unscaled by ``REPRO_BENCH_SCALE``: the
    scheduler acts every 150 µs, and the measurement must start several
    passes after the first (at scale 0.3 it starts one pass in, and
    scheduling still costs 40% of throughput).

    Returns per-class results (``"small"``, ``"large"``; the run's
    profile and audit report ride on ``"small"``), the combined ``"mops"``
    and ``"mixed_qps"``: the QPs that carry both size classes at the end
    of the run.
    """
    sizegen = cfg.sizegen
    run = Run("thread-sched %dB %s" % (sizegen.large_size,
                                       "on" if scheduling else "off"),
              cfg.warmup_ns, cfg.measure_ns, scaled=False,
              telemetry=telemetry, audit=audit, profile=profile)
    sim = run.sim
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                            thread_sched_interval_ns=150_000.0)
    server = FlockNode(sim, servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run, cfg.resp_size,
                                                  cfg.handler_ns))
    recorders = {"small": Recorder(sim), "large": Recorder(sim)}
    jitter = jitter_streams(99)
    handles = []
    for c_idx, node in enumerate(clients):
        fnode = FlockNode(sim, node, fabric, flock_cfg, seed=c_idx)
        fnode.client.thread_scheduling_enabled = scheduling
        handle = fnode.fl_connect(server, n_qps=cfg.threads_per_client // 2)
        handles.append(handle)
        for t_idx in range(cfg.threads_per_client):
            recorder = recorders["large" if t_idx in sizegen.large_threads
                                 else "small"]
            args = (handle, t_idx, ECHO_RPC, sizegen.next(t_idx))
            for _ in range(cfg.outstanding):
                sim.spawn(closed_loop(sim, recorder, fnode.fl_call, args,
                                      cfg.think_jitter_ns, next(jitter)),
                          name="sched-worker")

    run.window(recorders.values(), fabric)
    mixed_qps = 0
    for handle in handles:
        classes = {}
        for tid, qp in handle.thread_qp_map.items():
            classes.setdefault(qp, set()).add(tid in sizegen.large_threads)
        mixed_qps += sum(1 for found in classes.values() if len(found) == 2)
    out = {name: recorder.result(system="flock")
           for name, recorder in recorders.items()}
    out["mops"] = (out["small"].ops + out["large"].ops) / run.measure * 1e3
    out["mixed_qps"] = mixed_qps
    run.finish(out["small"])
    return out


# ---------------------------------------------------------------------------
# Multi-tenant QP allocation (paper §9 extension)
# ---------------------------------------------------------------------------

def run_multitenancy(weights: Dict[str, float], *, clients_per_tenant: int = 4,
                     threads: int = 16, duration_ns: float = 1_500_000.0,
                     telemetry=None, audit: Optional[bool] = None,
                     profile: Optional[bool] = None) -> RunResult:
    """Equally aggressive tenants share one FLock server whose
    :class:`repro.flock.TenantManager` splits a MAX_AQP=32 budget by
    ``weights`` (tenant name -> weight; each tenant gets
    ``clients_per_tenant`` clients, in the mapping's order).  32 is far
    below the tenants' demand, so they contend for it.

    One window from time zero over a fixed ``duration_ns``, unscaled by
    ``REPRO_BENCH_SCALE``: the QP scheduler acts every 150 µs, so the
    split needs several passes.  The extras carry ``max_aqp``, the
    number of ``clients``, and each tenant's active QPs at the end of the
    run (``active_qps_<tenant>``) and completed ops (``ops_<tenant>``).
    """
    run = Run("multitenancy", 0.0, duration_ns, scaled=False,
              telemetry=telemetry, audit=audit, profile=profile)
    sim = run.sim
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=len(weights) * clients_per_tenant))
    cfg = FlockConfig(qps_per_handle=threads, max_aqp=32,
                      sched_interval_ns=150_000.0,
                      thread_sched_interval_ns=150_000.0)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run, 64, 100.0))
    tenancy = TenantManager()
    for name, weight in weights.items():
        tenancy.register_tenant(name, weight=weight)
    server.server.tenancy = tenancy

    recorder = Recorder(sim)
    handles: Dict[str, list] = {name: [] for name in weights}
    tenants = list(weights)
    for c_idx, node in enumerate(clients):
        tenant = tenants[c_idx // clients_per_tenant]
        fnode = FlockNode(sim, node, fabric, cfg, seed=c_idx)
        handle = fnode.fl_connect(server, n_qps=threads)
        tenancy.assign_client(handle.client_id, tenant)
        handles[tenant].append(handle)
        for t_idx in range(threads):
            sim.spawn(closed_loop(sim, recorder, fnode.fl_call,
                                  (handle, t_idx, ECHO_RPC, 64)))

    run.window([recorder], fabric)
    extras: Dict[str, object] = {"system": "flock",
                                 "max_aqp": cfg.max_aqp,
                                 "clients": len(clients)}
    for tenant, tenant_handles in handles.items():
        extras["active_qps_" + tenant] = sum(
            len(server.server.clients[h.client_id].active_set)
            for h in tenant_handles)
        extras["ops_" + tenant] = sum(h.rpcs_completed
                                      for h in tenant_handles)
    extras["events"] = sim.events_processed
    return run.finish(recorder.result(**extras))


# ---------------------------------------------------------------------------
# Motivation: raw RC reads (Fig. 2a) and UD RPC (Fig. 2b)
# ---------------------------------------------------------------------------

def run_raw_reads(total_qps: int, *, n_clients: int = 22, read_size: int = 16,
                  outstanding_per_qp: int = 4,
                  warmup_ns: float = 200_000.0,
                  measure_ns: float = 300_000.0,
                  cluster: Optional[ClusterConfig] = None,
                  telemetry=None, audit: Optional[bool] = None,
                  profile: Optional[bool] = None) -> RunResult:
    """16-byte RDMA reads over an increasing number of QPs."""
    run = Run("rc-read qps=%d" % total_qps, warmup_ns, measure_ns,
              telemetry=telemetry, audit=audit, profile=profile)
    sim = run.sim
    cluster = replace(cluster or ClusterConfig(), n_clients=n_clients)
    servers, clients, fabric = build_cluster(sim, cluster)
    region = servers[0].memory.register(1 << 20)

    timeline = run.timeline(fabric)

    per_client = max(1, total_qps // n_clients)
    read_clients: List[ReadClient] = []
    for node in clients:
        rc = ReadClient(sim, node, fabric, servers[0], region,
                        n_qps=per_client, read_size=read_size,
                        outstanding_per_qp=outstanding_per_qp)
        # Raw reads have no Recorder; the passive completion hook feeds
        # the SLO timeline so Fig. 2a's cliff is visible *within* a run.
        rc.on_complete = lambda started, now: timeline.observe(
            now, now - started)
        rc.start()
        read_clients.append(rc)

    run.run(run.warmup)
    before = sum(rc.completed for rc in read_clients)
    run.run(run.warmup + run.measure)
    after = sum(rc.completed for rc in read_clients)
    slo = timeline.report()
    return run.finish(RunResult(
        ops=after - before, duration_ns=run.measure,
        latency={"count": 0, "median": 0.0, "p99": 0.0, "p999": 0.0,
                 "mean": 0.0, "min": 0.0, "max": 0.0},
        extras={
            "system": "rc-read",
            "total_qps": per_client * n_clients,
            "qp_cache_miss": round(
                servers[0].rnic.qp_cache.stats.miss_ratio, 4),
            "pcie_reads": servers[0].rnic.pcie.reads_issued,
        },
        slo=slo,
        anomalies=detect_run_anomalies(slo, label="rc-read"),
        host=host_block(sim)))


def run_ud_rpc(n_senders: int, *, n_clients: int = 22, req_size: int = 64,
               resp_size: int = 64, handler_ns: float = 100.0,
               outstanding: int = 2, warmup_ns: float = 200_000.0,
               measure_ns: float = 300_000.0,
               cluster: Optional[ClusterConfig] = None,
               telemetry=None, audit: Optional[bool] = None,
               profile: Optional[bool] = None) -> RunResult:
    """UD-based RPC with an increasing number of senders."""
    run = Run("ud-rpc n=%d" % n_senders, warmup_ns, measure_ns,
              telemetry=telemetry, audit=audit, profile=profile)
    sim = run.sim
    cluster = replace(cluster or ClusterConfig(), n_clients=n_clients)
    servers, clients, fabric = build_cluster(sim, cluster)
    server = UdRpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run, resp_size,
                                                    handler_ns))

    recorder = Recorder(sim)
    per_client = max(1, n_senders // n_clients)
    sender_idx = 0
    for node in clients:
        for _s in range(per_client):
            endpoint = UdEndpoint(sim, node, fabric)
            args = (server, server.qp_for_client(sender_idx), ECHO_RPC,
                    req_size)
            sender_idx += 1
            for _ in range(outstanding):
                sim.spawn(closed_loop(sim, recorder, endpoint.call, args),
                          name="ud-worker")

    run.window([recorder], fabric)
    return run.finish(recorder.result(
        system="ud-rpc",
        n_senders=per_client * n_clients,
        server_cpu=round(servers[0].cpu.utilization(), 3),
        server_net_frac=round(servers[0].cpu.network_fraction(), 3),
        events=sim.events_processed,
    ))
