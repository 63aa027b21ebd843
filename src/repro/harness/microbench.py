"""Microbenchmark runners (paper Figs. 2, 6-12).

Each function builds a fresh cluster, spawns closed-loop client workers,
runs a warmup long enough for FLock's schedulers to converge, measures a
virtual-time window, and returns a :class:`RunResult` in paper units.

``REPRO_BENCH_SCALE`` (env var, default 1.0) multiplies the warmup and
measurement windows for longer, lower-variance runs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional

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
from ..flock import FlockNode
from ..net import build_cluster
from ..obs import (
    AuditError,
    Registry,
    audit_enabled,
    current_telemetry,
    faults,
    run_audit,
)
from ..obs.anomaly import detect_run_anomalies
from ..obs.occupancy import OccupancyTracker, occupancy_enabled
from ..obs.simprof import SimProfile, profile_enabled
from ..obs.windows import attach_switch_sources, slo_timeline
from ..sim import Simulator
from ..workloads import FixedSize
from .metrics import Recorder, RunResult, host_block

__all__ = [
    "MicrobenchConfig",
    "bench_scale",
    "run_flock",
    "run_erpc",
    "run_rc",
    "run_raw_reads",
    "run_ud_rpc",
    "sweep_raw_reads",
    "sweep_ud_rpc",
    "sweep_flock_vs_erpc",
]

ECHO_RPC = 1


def bench_scale() -> float:
    """Duration multiplier from the REPRO_BENCH_SCALE environment var."""
    try:
        return max(0.1, float(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1.0


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

    def durations(self) -> tuple:
        scale = bench_scale()
        return self.warmup_ns * scale, self.measure_ns * scale

    def make_sizegen(self):
        return self.sizegen if self.sizegen is not None else FixedSize(self.req_size)


def _install_telemetry(sim: Simulator, telemetry, label: str):
    """Install the run's telemetry on ``sim`` before any component is
    built (components cache their instruments at construction time).

    An explicit ``telemetry=`` argument wins; otherwise the process-wide
    telemetry enabled via :func:`repro.obs.enable` (e.g. by CLI flags)
    is used.  Returns the installed :class:`repro.obs.Telemetry` or None.
    """
    tel = telemetry if telemetry is not None else current_telemetry()
    if tel is not None:
        tel.install(sim, label=label)
    return tel


def _prepare_audit(sim: Simulator, tel, audit: Optional[bool]):
    """Decide whether to audit this run, *before* the cluster is built.

    Returns ``(audited, registry)``.  The registry handed back is the one
    safe to cross-check against this sim's structural counters — None
    when the installed registry accumulated earlier runs (its counters
    are cumulative per registry, so only a fresh one is comparable).
    When auditing without telemetry, a bare :class:`repro.obs.Registry`
    is installed so counter cross-checks still run (no span overhead).
    """
    audited = audit if audit is not None else audit_enabled()
    if not audited:
        return False, None
    if getattr(sim.metrics, "enabled", False):
        fresh = tel is None or len(getattr(tel, "runs", ())) <= 1
        return True, (sim.metrics if fresh else None)
    registry = Registry()
    sim.metrics = registry
    return True, registry


def _finish_audit(audited: bool, sim: Simulator, registry,
                  result: RunResult) -> RunResult:
    """Run the end-of-run auditors and attach the report; raises
    :class:`repro.obs.AuditError` on any violation."""
    if audited:
        result.audit_report = run_audit(sim, registry)
        if not result.audit_report.ok:
            raise AuditError(result.audit_report)
    return result


#: ``bench.step_handler_cost`` multiplies the server handler cost by
#: this factor once virtual time passes ``step_at_ns`` — a manufactured
#: mid-run latency changepoint the anomaly detectors must catch (and CI
#: proves they do, while staying silent on the clean twin run).
STEP_FAULT_FACTOR = 25.0


def _echo_handler(resp_size: int, handler_ns: float, sim=None,
                  step_at_ns: Optional[float] = None):
    if (sim is not None and step_at_ns is not None
            and faults.is_active("bench.step_handler_cost")):
        def faulty_handler(request):
            if sim.now >= step_at_ns:
                return resp_size, None, handler_ns * STEP_FAULT_FACTOR
            return resp_size, None, handler_ns
        return faulty_handler

    def handler(request):
        return resp_size, None, handler_ns
    return handler


def _install_observatory(sim: Simulator, warmup: float, measure: float,
                         profile: Optional[bool] = None):
    """Arm the cost observatory for one run, *before* the cluster is
    built (components cache ``sim.occupancy`` at construction, exactly
    like telemetry).

    Occupancy tracking is governed by ``REPRO_OCCUPANCY``; profiling by
    the ``profile`` override or ``REPRO_PROFILE``.  Returns the run's
    :class:`repro.obs.simprof.SimProfile` or None.  Neither instrument
    schedules events or draws randomness, so arming them never changes
    simulation results.
    """
    if occupancy_enabled():
        sim.occupancy = OccupancyTracker(warmup, warmup + measure)
    want = profile if profile is not None else profile_enabled()
    return SimProfile(warmup, warmup + measure) if want else None


def _attach_profile(result: RunResult, sim: Simulator, prof) -> RunResult:
    """Finish the observatory instruments and hang their reports (plain
    JSON-safe dicts) on ``result.profile``."""
    occ = sim.occupancy
    if occ is not None:
        occ.finish(sim.now)
    if prof is not None:
        prof.finish(sim)
        report = prof.report()
        if occ is not None:
            report["occupancy"] = occ.report()
        result.profile = report
    elif occ is not None:
        result.profile = {"occupancy": occ.report()}
    return result


def _run_window(sim: Simulator, recorder: Recorder, warmup: float,
                measure: float, fabric=None, profile=None) -> None:
    """Open the measurement window, attach the run's SLO timeline (with
    switch counter sources when the fabric has a congestion switch), and
    drive the sim to the window's end.  The timeline is purely passive:
    it observes the recorder's completions without scheduling events or
    drawing randomness, so results are unchanged by its presence.  With
    a ``profile``, the instrumented :meth:`Simulator.run_profiled` loop
    is used instead of the fast path — same results, host-cost
    attribution on the side."""
    recorder.open_window(warmup, warmup + measure)
    timeline = slo_timeline(warmup, warmup + measure)
    if fabric is not None:
        attach_switch_sources(timeline, fabric)
    recorder.attach_slo(timeline)
    if profile is not None:
        sim.run_profiled(profile, until=warmup + measure)
    else:
        sim.run(until=warmup + measure)


# ---------------------------------------------------------------------------
# FLock (Figs. 6-12)
# ---------------------------------------------------------------------------

def run_flock(cfg: MicrobenchConfig, *, qps_per_process: Optional[int] = None,
              coalescing: bool = True, thread_scheduling: bool = True,
              flock_cfg: Optional[FlockConfig] = None,
              telemetry=None, audit: Optional[bool] = None,
              profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over FLock."""
    sim = Simulator()
    tel = _install_telemetry(sim, telemetry, "flock")
    audited, audit_reg = _prepare_audit(sim, tel, audit)
    warmup, measure = cfg.durations()
    prof = _install_observatory(sim, warmup, measure, profile)
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    if flock_cfg is None:
        # Fast scheduler convergence for short measurement windows.
        flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                                thread_sched_interval_ns=150_000.0)
    server = FlockNode(sim, servers[0], fabric, flock_cfg)
    server.fl_reg_handler(ECHO_RPC, _echo_handler(
        cfg.resp_size, cfg.handler_ns, sim, warmup + measure / 2))

    recorder = Recorder(sim)
    sizegen = cfg.make_sizegen()
    n_qps = qps_per_process or cfg.threads_per_client
    handles = []
    client_nodes = []
    jitter_rng = random.Random(cfg.seed ^ 0x7EA)

    def worker(flock_client, handle, thread_id, rng):
        while True:
            if cfg.think_jitter_ns > 0:
                yield sim.timeout(rng.random() * cfg.think_jitter_ns)
            size = sizegen.next(thread_id)
            started = sim.now
            yield from flock_client.fl_call(handle, thread_id, ECHO_RPC, size)
            recorder.record(started)

    for c_idx, node in enumerate(clients):
        for p_idx in range(cfg.processes_per_client):
            fnode = FlockNode(sim, node, fabric, flock_cfg,
                              seed=cfg.seed + c_idx * 131 + p_idx)
            fnode.client.coalescing_enabled = coalescing
            fnode.client.thread_scheduling_enabled = thread_scheduling
            handle = fnode.fl_connect(server, n_qps=n_qps)
            handles.append(handle)
            client_nodes.append(fnode)
            for t_idx in range(cfg.threads_per_client):
                for _ in range(cfg.outstanding):
                    rng = random.Random(jitter_rng.getrandbits(48))
                    sim.spawn(worker(fnode, handle, t_idx, rng),
                              name="bench-worker")

    _run_window(sim, recorder, warmup, measure, fabric, profile=prof)
    degree = (sum(h.mean_coalescing_degree() for h in handles) / len(handles)
              if handles else 1.0)
    result = recorder.result(
        system="flock",
        mean_coalescing_degree=round(degree, 3),
        active_qps=server.server.total_active_qps,
        server_cpu=round(servers[0].cpu.utilization(), 3),
        server_net_frac=round(servers[0].cpu.network_fraction(), 3),
        qp_cache_miss=round(servers[0].rnic.qp_cache.stats.miss_ratio, 4),
        events=sim.events_processed,
    )
    result.telemetry = tel
    _attach_profile(result, sim, prof)
    return _finish_audit(audited, sim, audit_reg, result)


# ---------------------------------------------------------------------------
# eRPC (Figs. 6-8, 16-18 baseline)
# ---------------------------------------------------------------------------

def run_erpc(cfg: MicrobenchConfig, *, telemetry=None,
             audit: Optional[bool] = None,
             profile: Optional[bool] = None) -> RunResult:
    """Closed-loop echo RPCs over the eRPC-like UD baseline."""
    sim = Simulator()
    tel = _install_telemetry(sim, telemetry, "erpc")
    audited, audit_reg = _prepare_audit(sim, tel, audit)
    warmup, measure = cfg.durations()
    prof = _install_observatory(sim, warmup, measure, profile)
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    server = ErpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(
        cfg.resp_size, cfg.handler_ns, sim, warmup + measure / 2))

    recorder = Recorder(sim)
    sizegen = cfg.make_sizegen()
    endpoint_counter = [0]

    jitter_rng = random.Random(cfg.seed ^ 0x7EA)

    def worker(endpoint, server_qp, thread_id, rng):
        while True:
            if cfg.think_jitter_ns > 0:
                yield sim.timeout(rng.random() * cfg.think_jitter_ns)
            size = sizegen.next(thread_id)
            started = sim.now
            response = yield from endpoint.call(server, server_qp, ECHO_RPC, size)
            if response is not None:
                recorder.record(started)

    for node in clients:
        for _p in range(cfg.processes_per_client):
            for t_idx in range(cfg.threads_per_client):
                endpoint = ErpcEndpoint(sim, node, fabric)
                server_qp = server.qp_for_client(endpoint_counter[0])
                endpoint_counter[0] += 1
                for _ in range(cfg.outstanding):
                    rng = random.Random(jitter_rng.getrandbits(48))
                    sim.spawn(worker(endpoint, server_qp, t_idx, rng),
                              name="erpc-worker")

    _run_window(sim, recorder, warmup, measure, fabric, profile=prof)
    result = recorder.result(
        system="erpc",
        server_cpu=round(servers[0].cpu.utilization(), 3),
        server_net_frac=round(servers[0].cpu.network_fraction(), 3),
        recv_drops=server.recv_drops,
        events=sim.events_processed,
    )
    result.telemetry = tel
    _attach_profile(result, sim, prof)
    return _finish_audit(audited, sim, audit_reg, result)


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
    sim = Simulator()
    tel = _install_telemetry(sim, telemetry, "rc-%dtpq" % threads_per_qp)
    audited, audit_reg = _prepare_audit(sim, tel, audit)
    warmup, measure = cfg.durations()
    prof = _install_observatory(sim, warmup, measure, profile)
    cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
    servers, clients, fabric = build_cluster(sim, cluster)
    server = RcRpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(
        cfg.resp_size, cfg.handler_ns, sim, warmup + measure / 2))

    recorder = Recorder(sim)
    sizegen = cfg.make_sizegen()

    jitter_rng = random.Random(cfg.seed ^ 0x7EA)

    def worker(rc_client, handle, thread_id, rng):
        while True:
            if cfg.think_jitter_ns > 0:
                yield sim.timeout(rng.random() * cfg.think_jitter_ns)
            size = sizegen.next(thread_id)
            started = sim.now
            yield from rc_client.call(handle, thread_id, ECHO_RPC, size)
            recorder.record(started)

    for node in clients:
        rc_client = RcRpcClient(sim, node, fabric)
        n_qps = max(1, (cfg.threads_per_client + threads_per_qp - 1)
                    // threads_per_qp)
        handle = rc_client.connect(server, n_qps=n_qps,
                                   threads_per_qp=threads_per_qp)
        for t_idx in range(cfg.threads_per_client):
            for _ in range(cfg.outstanding):
                rng = random.Random(jitter_rng.getrandbits(48))
                sim.spawn(worker(rc_client, handle, t_idx, rng),
                          name="rc-worker")

    _run_window(sim, recorder, warmup, measure, fabric, profile=prof)
    result = recorder.result(
        system="rc-%dtpq" % threads_per_qp,
        server_cpu=round(servers[0].cpu.utilization(), 3),
        qp_cache_miss=round(servers[0].rnic.qp_cache.stats.miss_ratio, 4),
        events=sim.events_processed,
    )
    result.telemetry = tel
    _attach_profile(result, sim, prof)
    return _finish_audit(audited, sim, audit_reg, result)


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
    sim = Simulator()
    tel = _install_telemetry(sim, telemetry, "rc-read qps=%d" % total_qps)
    audited, audit_reg = _prepare_audit(sim, tel, audit)
    scale = bench_scale()
    warmup, measure = warmup_ns * scale, measure_ns * scale
    prof = _install_observatory(sim, warmup, measure, profile)
    cluster = replace(cluster or ClusterConfig(), n_clients=n_clients)
    servers, clients, fabric = build_cluster(sim, cluster)
    region = servers[0].memory.register(1 << 20)

    timeline = attach_switch_sources(slo_timeline(warmup, warmup + measure),
                                     fabric)

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

    if prof is not None:
        sim.run_profiled(prof, until=warmup)
    else:
        sim.run(until=warmup)
    before = sum(rc.completed for rc in read_clients)
    if prof is not None:
        sim.run_profiled(prof, until=warmup + measure)
    else:
        sim.run(until=warmup + measure)
    after = sum(rc.completed for rc in read_clients)
    ops = after - before
    slo = timeline.report()
    result = RunResult(ops=ops, duration_ns=measure,
                       latency={"count": 0, "median": 0.0, "p99": 0.0,
                                "p999": 0.0, "mean": 0.0, "min": 0.0,
                                "max": 0.0},
                       extras={
                           "system": "rc-read",
                           "total_qps": per_client * n_clients,
                           "qp_cache_miss": round(
                               servers[0].rnic.qp_cache.stats.miss_ratio, 4),
                           "pcie_reads": servers[0].rnic.pcie.reads_issued,
                       },
                       telemetry=tel,
                       slo=slo,
                       anomalies=detect_run_anomalies(slo, label="rc-read"),
                       host=host_block(sim))
    _attach_profile(result, sim, prof)
    return _finish_audit(audited, sim, audit_reg, result)


def run_ud_rpc(n_senders: int, *, n_clients: int = 22, req_size: int = 64,
               resp_size: int = 64, handler_ns: float = 100.0,
               outstanding: int = 2, warmup_ns: float = 200_000.0,
               measure_ns: float = 300_000.0,
               cluster: Optional[ClusterConfig] = None,
               telemetry=None, audit: Optional[bool] = None,
               profile: Optional[bool] = None) -> RunResult:
    """UD-based RPC with an increasing number of senders."""
    sim = Simulator()
    tel = _install_telemetry(sim, telemetry, "ud-rpc n=%d" % n_senders)
    audited, audit_reg = _prepare_audit(sim, tel, audit)
    scale = bench_scale()
    warmup, measure = warmup_ns * scale, measure_ns * scale
    prof = _install_observatory(sim, warmup, measure, profile)
    cluster = replace(cluster or ClusterConfig(), n_clients=n_clients)
    servers, clients, fabric = build_cluster(sim, cluster)
    server = UdRpcServer(sim, servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(
        resp_size, handler_ns, sim, warmup + measure / 2))

    recorder = Recorder(sim)

    def worker(endpoint, server_qp):
        while True:
            started = sim.now
            response = yield from endpoint.call(server, server_qp, ECHO_RPC,
                                                req_size)
            if response is not None:
                recorder.record(started)

    per_client = max(1, n_senders // n_clients)
    sender_idx = 0
    for node in clients:
        for _s in range(per_client):
            endpoint = UdEndpoint(sim, node, fabric)
            server_qp = server.qp_for_client(sender_idx)
            sender_idx += 1
            for _ in range(outstanding):
                sim.spawn(worker(endpoint, server_qp), name="ud-worker")

    _run_window(sim, recorder, warmup, measure, fabric, profile=prof)
    result = recorder.result(
        system="ud-rpc",
        n_senders=per_client * n_clients,
        server_cpu=round(servers[0].cpu.utilization(), 3),
        server_net_frac=round(servers[0].cpu.network_fraction(), 3),
        events=sim.events_processed,
    )
    result.telemetry = tel
    _attach_profile(result, sim, prof)
    return _finish_audit(audited, sim, audit_reg, result)


# ---------------------------------------------------------------------------
# Sweeps: the figure-level fan-outs (parallelizable via --jobs)
# ---------------------------------------------------------------------------

def sweep_raw_reads(qps_list, *, n_clients: int = 22,
                    outstanding_per_qp: int = 4, jobs: int = 1) -> dict:
    """Fig. 2a's QP ramp as an ordered ``{qps: RunResult}`` sweep."""
    from .parallel import SweepPoint, run_sweep
    points = [
        SweepPoint("fig2a/qps=%d" % qps, run_raw_reads, (qps,),
                   {"n_clients": n_clients,
                    "outstanding_per_qp": outstanding_per_qp})
        for qps in qps_list]
    merged = run_sweep(points, jobs)
    return {qps: result for qps, (_key, result) in zip(qps_list, merged)}


def sweep_ud_rpc(senders_list, *, n_clients: int = 22, jobs: int = 1) -> dict:
    """Fig. 2b's sender ramp as an ordered ``{senders: RunResult}``."""
    from .parallel import SweepPoint, run_sweep
    points = [
        SweepPoint("fig2b/senders=%d" % n, run_ud_rpc, (n,),
                   {"n_clients": n_clients})
        for n in senders_list]
    merged = run_sweep(points, jobs)
    return {n: result for n, (_key, result) in zip(senders_list, merged)}


def sweep_flock_vs_erpc(threads_list, *, n_clients: int = 23,
                        outstanding: int = 1, jobs: int = 1) -> dict:
    """Figs. 6-8: both systems across a thread ramp.

    Returns ``{(system, outstanding, threads): RunResult}`` — the exact
    key shape :func:`repro.harness.scorecards.scorecards_fig6_7_8`
    consumes — with results identical to calling :func:`run_flock` /
    :func:`run_erpc` in a serial loop.
    """
    from .parallel import SweepPoint, run_sweep
    points = []
    for threads in threads_list:
        cfg = MicrobenchConfig(n_clients=n_clients,
                               threads_per_client=threads,
                               outstanding=outstanding)
        points.append(SweepPoint(
            "fig6/flock/t=%d" % threads, run_flock, (cfg,)))
        points.append(SweepPoint(
            "fig6/erpc/t=%d" % threads, run_erpc, (cfg,)))
    merged = iter(run_sweep(points, jobs))
    results = {}
    for threads in threads_list:
        results[("flock", outstanding, threads)] = next(merged)[1]
        results[("erpc", outstanding, threads)] = next(merged)[1]
    return results
