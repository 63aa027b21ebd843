"""Microbenchmark runners (paper Figs. 2, 6-12).

Each function drives one :class:`repro.harness.metrics.Run`, which
builds a fresh cluster, spawns the closed-loop client workers, runs a
warmup long enough for FLock's schedulers to converge, measures a
virtual-time window (scaled by ``REPRO_BENCH_SCALE``), and finishes a
:class:`RunResult` in paper units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

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
from ..obs import faults
from ..obs.anomaly import detect_run_anomalies
from ..sim import jitter_streams, summarize_latencies
from ..workloads import BimodalSize
from .metrics import Recorder, Run, RunResult

__all__ = [
    "MicrobenchConfig",
    "bench_flock_config",
    "flock_echo",
    "run_flock",
    "run_erpc",
    "run_multitenancy",
    "run_rc",
    "run_thread_sched",
    "run_raw_reads",
    "run_ud_rpc",
]

ECHO_RPC = 1

#: Request and response bytes of the echo RPC (Figs. 6-12).
ECHO_BYTES = 64
#: Server-side application work per echo request.
ECHO_HANDLER_NS = 100.0
#: Per-iteration client think-time jitter (uniform [0, x) ns): real
#: application threads never re-issue in perfect lockstep, which keeps
#: coalescing degrees realistic instead of phase-locked.
THINK_JITTER_NS = 300.0
#: Fig. 2a's RDMA READ size.
READ_BYTES = 16
#: Requests each Fig. 2b UD sender keeps in flight.
UD_OUTSTANDING = 2


def bench_flock_config(**fields) -> FlockConfig:
    """The :class:`FlockConfig` every benchmark runs: the paper's
    defaults, but with 150 µs QP- and thread-scheduler passes, because
    the benchmarks' sub-millisecond windows need several passes to
    converge before measuring.  ``fields`` set any other field."""
    return FlockConfig(sched_interval_ns=150_000.0,
                       thread_sched_interval_ns=150_000.0, **fields)


@dataclass
class MicrobenchConfig:
    """Shared knobs of the RPC microbenchmarks."""

    n_clients: int = 23
    threads_per_client: int = 16
    outstanding: int = 1
    #: Client processes per node (Fig. 12 runs up to 16).
    processes_per_client: int = 1
    warmup_ns: float = 600_000.0
    measure_ns: float = 500_000.0
    seed: int = 1

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(n_clients=self.n_clients, seed=self.seed)


#: ``bench.step_handler_cost`` multiplies the server handler cost by
#: this factor from the middle of the measurement window on — a
#: manufactured mid-run latency changepoint the anomaly detectors must
#: catch (and tier-1 proves they do, while staying silent on the clean
#: twin run).
STEP_FAULT_FACTOR = 25.0


def _echo_handler(run: Run, handler_ns: float = ECHO_HANDLER_NS):
    """The echo RPC handler: ``ECHO_BYTES`` back for ``handler_ns`` of
    server CPU, stepped up under ``bench.step_handler_cost``."""
    if faults.is_active("bench.step_handler_cost"):
        sim = run.sim
        step_at_ns = run.warmup + run.measure / 2

        def faulty_handler(request):
            if sim.now >= step_at_ns:
                return ECHO_BYTES, None, handler_ns * STEP_FAULT_FACTOR
            return ECHO_BYTES, None, handler_ns
        return faulty_handler

    def handler(request):
        return ECHO_BYTES, None, handler_ns
    return handler


# ---------------------------------------------------------------------------
# FLock (Figs. 6-12)
# ---------------------------------------------------------------------------

def flock_echo(run: Run, cfg, flock_cfg: FlockConfig, n_qps: int,
               sizes: Sequence[int], thinks: Sequence[float], system: str,
               *, handler_ns: float = ECHO_HANDLER_NS, processes: int = 1,
               coalescing: bool = True
               ) -> Tuple[Recorder, dict, list, FlockNode]:
    """Every client's FLock processes -> one FLock echo server, run
    through ``run``'s window.

    ``cfg`` is any bench config with ``threads_per_client``,
    ``outstanding`` and ``seed``.  Each of a client's ``processes``
    connects ``n_qps`` QPs; its thread ``t`` sends ``sizes[t]`` bytes and
    thinks up to ``thinks[t]`` ns between calls.  Returns the recorder,
    the extras every FLock echo run reports (``system``, the mean
    coalescing degree and the server's CPU utilisation), the client
    handles and the server node.
    """
    sim, fabric = run.sim, run.fabric
    server = FlockNode(sim, run.servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run, handler_ns))

    recorder = Recorder(sim)
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    handles = []
    for c_idx, node in enumerate(run.clients):
        for p_idx in range(processes):
            fnode = FlockNode(sim, node, fabric, flock_cfg,
                              seed=cfg.seed + c_idx * 131 + p_idx)
            fnode.client.coalescing_enabled = coalescing
            handle = fnode.fl_connect(server, n_qps=n_qps)
            handles.append(handle)
            for t_idx in range(cfg.threads_per_client):
                run.loops(recorder, fnode.fl_call,
                          (handle, t_idx, ECHO_RPC, sizes[t_idx]),
                          cfg.outstanding, thinks[t_idx], jitter)

    run.window([recorder])
    degree = (sum(h.mean_coalescing_degree() for h in handles) / len(handles)
              if handles else 1.0)
    extras = {"system": system,
              "mean_coalescing_degree": round(degree, 3),
              "server_cpu": round(run.servers[0].cpu.utilization(), 3)}
    return recorder, extras, handles, server


def run_flock(cfg: MicrobenchConfig, *, qps_per_process: Optional[int] = None,
              coalescing: bool = True,
              flock_cfg: Optional[FlockConfig] = None,
              telemetry=None, audit: Optional[bool] = None,
              profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over FLock."""
    run = Run("flock", cfg.warmup_ns, cfg.measure_ns, cfg.cluster_config(),
              telemetry=telemetry, audit=audit, profile=profile)
    if flock_cfg is None:
        flock_cfg = bench_flock_config()
    threads = cfg.threads_per_client
    recorder, extras, _handles, server = flock_echo(
        run, cfg, flock_cfg, qps_per_process or threads,
        [ECHO_BYTES] * threads, [THINK_JITTER_NS] * threads, "flock",
        processes=cfg.processes_per_client, coalescing=coalescing)
    hw = run.servers[0]
    return run.finish(recorder.result(
        active_qps=server.server.total_active_qps,
        server_net_frac=round(hw.cpu.network_fraction(), 3),
        qp_cache_miss=round(hw.rnic.qp_cache.stats.miss_ratio, 4),
        **extras))


# ---------------------------------------------------------------------------
# eRPC (Figs. 6-8, 16-18 baseline)
# ---------------------------------------------------------------------------

def run_erpc(cfg: MicrobenchConfig, *, audit: Optional[bool] = None,
             profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over the eRPC-like UD baseline."""
    run = Run("erpc", cfg.warmup_ns, cfg.measure_ns, cfg.cluster_config(),
              audit=audit, profile=profile)
    sim, fabric = run.sim, run.fabric
    server = ErpcServer(sim, run.servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run))

    recorder = Recorder(sim)
    n_endpoints = 0
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    for node in run.clients:
        for _p in range(cfg.processes_per_client):
            for _t in range(cfg.threads_per_client):
                endpoint = ErpcEndpoint(sim, node, fabric)
                args = (server, server.qp_for_client(n_endpoints), ECHO_RPC,
                        ECHO_BYTES)
                n_endpoints += 1
                run.loops(recorder, endpoint.call, args, cfg.outstanding,
                          THINK_JITTER_NS, jitter)

    run.window([recorder])
    return run.finish(recorder.result(
        system="erpc",
        server_cpu=round(run.servers[0].cpu.utilization(), 3),
        server_net_frac=round(run.servers[0].cpu.network_fraction(), 3),
        recv_drops=server.recv_drops,
    ))


# ---------------------------------------------------------------------------
# RC sharing baselines: no-sharing / FaRM-style spinlock (Fig. 9)
# ---------------------------------------------------------------------------

def run_rc(cfg: MicrobenchConfig, *, threads_per_qp: int = 1,
           audit: Optional[bool] = None,
           profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over RC write-based RPC without coalescing.

    ``threads_per_qp=1`` is the dedicated-QP (no sharing) config;
    2 or 4 is FaRM-like spinlock sharing.
    """
    run = Run("rc-%dtpq" % threads_per_qp, cfg.warmup_ns, cfg.measure_ns,
              cfg.cluster_config(), audit=audit, profile=profile)
    sim, fabric = run.sim, run.fabric
    server = RcRpcServer(sim, run.servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run))

    recorder = Recorder(sim)
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    for node in run.clients:
        rc_client = RcRpcClient(sim, node, fabric)
        n_qps = max(1, (cfg.threads_per_client + threads_per_qp - 1)
                    // threads_per_qp)
        handle = rc_client.connect(server, n_qps=n_qps,
                                   threads_per_qp=threads_per_qp)
        for t_idx in range(cfg.threads_per_client):
            run.loops(recorder, rc_client.call,
                      (handle, t_idx, ECHO_RPC, ECHO_BYTES), cfg.outstanding,
                      THINK_JITTER_NS, jitter)

    run.window([recorder])
    return run.finish(recorder.result(
        system="rc-%dtpq" % threads_per_qp,
        server_cpu=round(run.servers[0].cpu.utilization(), 3),
        qp_cache_miss=round(run.servers[0].rnic.qp_cache.stats.miss_ratio, 4),
    ))


# ---------------------------------------------------------------------------
# Sender-side thread scheduling under mixed payloads (Fig. 11)
# ---------------------------------------------------------------------------

def run_thread_sched(cfg: MicrobenchConfig, large_size: int, *,
                     scheduling: bool, audit: Optional[bool] = None,
                     profile: Optional[bool] = None) -> Dict[str, object]:
    """FLock echo RPCs over Fig. 11's mixed-size workload (a
    :class:`BimodalSize`: the first tenth of each client's threads send
    ``large_size`` bytes, the rest 64 B), with thread scheduling on or
    off.  Each client connects half as many QPs as it has threads.

    The windows are ``cfg``'s, unscaled by ``REPRO_BENCH_SCALE``: the
    scheduler acts every 150 µs, and the measurement must start several
    passes after the first (at scale 0.3 it starts one pass in, and
    scheduling still costs 40% of throughput).

    Returns per-class results (``"small"``, ``"large"``; the run's event
    count, profile and audit report ride on ``"small"``), the combined
    ``"mops"`` and ``"mixed_qps"``: the QPs that carry both size classes
    at the end of the run.
    """
    sizes = BimodalSize(cfg.threads_per_client, large_size)
    run = Run("thread-sched %dB %s" % (large_size,
                                       "on" if scheduling else "off"),
              cfg.warmup_ns, cfg.measure_ns, cfg.cluster_config(),
              scaled=False, audit=audit, profile=profile)
    sim, fabric = run.sim, run.fabric
    flock_cfg = bench_flock_config()
    server = FlockNode(sim, run.servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run))
    recorders = {"small": Recorder(sim), "large": Recorder(sim)}
    jitter = jitter_streams(99)
    handles = []
    for c_idx, node in enumerate(run.clients):
        fnode = FlockNode(sim, node, fabric, flock_cfg, seed=c_idx)
        fnode.client.thread_scheduling_enabled = scheduling
        handle = fnode.fl_connect(server, n_qps=cfg.threads_per_client // 2)
        handles.append(handle)
        for t_idx in range(cfg.threads_per_client):
            recorder = recorders["large" if t_idx in sizes.large_threads
                                 else "small"]
            run.loops(recorder, fnode.fl_call,
                      (handle, t_idx, ECHO_RPC, sizes.next(t_idx)),
                      cfg.outstanding, THINK_JITTER_NS, jitter)

    run.window(recorders.values())
    mixed_qps = 0
    for handle in handles:
        classes = {}
        for tid, qp in handle.thread_qp_map.items():
            classes.setdefault(qp, set()).add(tid in sizes.large_threads)
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
                     audit: Optional[bool] = None,
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
    run = Run("multitenancy", 0.0, duration_ns,
              ClusterConfig(n_clients=len(weights) * clients_per_tenant),
              scaled=False, audit=audit, profile=profile)
    sim, fabric = run.sim, run.fabric
    cfg = bench_flock_config(qps_per_handle=threads, max_aqp=32)
    server = FlockNode(sim, run.servers[0], fabric, cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(run))
    tenancy = TenantManager()
    for name, weight in weights.items():
        tenancy.register_tenant(name, weight=weight)
    server.server.tenancy = tenancy

    recorder = Recorder(sim)
    handles: Dict[str, list] = {name: [] for name in weights}
    tenants = list(weights)
    for c_idx, node in enumerate(run.clients):
        tenant = tenants[c_idx // clients_per_tenant]
        fnode = FlockNode(sim, node, fabric, cfg, seed=c_idx)
        handle = fnode.fl_connect(server, n_qps=threads)
        tenancy.assign_client(handle.client_id, tenant)
        handles[tenant].append(handle)
        for t_idx in range(threads):
            run.loops(recorder, fnode.fl_call,
                      (handle, t_idx, ECHO_RPC, ECHO_BYTES), 1)

    run.window([recorder])
    extras: Dict[str, object] = {"system": "flock",
                                 "max_aqp": cfg.max_aqp,
                                 "clients": len(run.clients)}
    for tenant, tenant_handles in handles.items():
        extras["active_qps_" + tenant] = sum(
            len(server.server.clients[h.client_id].active_set)
            for h in tenant_handles)
        extras["ops_" + tenant] = sum(h.rpcs_completed
                                      for h in tenant_handles)
    return run.finish(recorder.result(**extras))


# ---------------------------------------------------------------------------
# Motivation: raw RC reads (Fig. 2a) and UD RPC (Fig. 2b)
# ---------------------------------------------------------------------------

def run_raw_reads(total_qps: int, *, n_clients: int = 22,
                  outstanding_per_qp: int = 4,
                  warmup_ns: float = 200_000.0,
                  measure_ns: float = 300_000.0,
                  cluster: Optional[ClusterConfig] = None,
                  telemetry=None, audit: Optional[bool] = None,
                  profile: Optional[bool] = None) -> RunResult:
    """16-byte RDMA reads over an increasing number of QPs."""
    run = Run("rc-read qps=%d" % total_qps, warmup_ns, measure_ns,
              replace(cluster or ClusterConfig(), n_clients=n_clients),
              telemetry=telemetry, audit=audit, profile=profile)
    sim, server = run.sim, run.servers[0]
    region = server.memory.register(1 << 20)

    timeline = run.timeline()

    per_client = max(1, total_qps // n_clients)
    read_clients: List[ReadClient] = []
    for node in run.clients:
        rc = ReadClient(sim, node, run.fabric, server, region,
                        n_qps=per_client, read_size=READ_BYTES,
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
        latency=summarize_latencies([]),
        extras={
            "system": "rc-read",
            "total_qps": per_client * n_clients,
            "qp_cache_miss": round(server.rnic.qp_cache.stats.miss_ratio, 4),
            "pcie_reads": server.rnic.pcie.reads_issued,
        },
        slo=slo,
        anomalies=detect_run_anomalies(slo, label="rc-read")))


def run_ud_rpc(n_senders: int, *, n_clients: int = 22,
               warmup_ns: float = 200_000.0,
               measure_ns: float = 300_000.0,
               audit: Optional[bool] = None,
               profile: Optional[bool] = None) -> RunResult:
    """UD-based RPC with an increasing number of senders."""
    run = Run("ud-rpc n=%d" % n_senders, warmup_ns, measure_ns,
              ClusterConfig(n_clients=n_clients), audit=audit,
              profile=profile)
    sim, fabric = run.sim, run.fabric
    server = UdRpcServer(sim, run.servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run))

    recorder = Recorder(sim)
    per_client = max(1, n_senders // n_clients)
    sender_idx = 0
    for node in run.clients:
        for _s in range(per_client):
            endpoint = UdEndpoint(sim, node, fabric)
            args = (server, server.qp_for_client(sender_idx), ECHO_RPC,
                    ECHO_BYTES)
            sender_idx += 1
            run.loops(recorder, endpoint.call, args, UD_OUTSTANDING)

    run.window([recorder])
    return run.finish(recorder.result(
        system="ud-rpc",
        n_senders=per_client * n_clients,
        server_cpu=round(run.servers[0].cpu.utilization(), 3),
        server_net_frac=round(run.servers[0].cpu.network_fraction(), 3),
    ))
