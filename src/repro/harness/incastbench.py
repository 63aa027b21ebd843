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

Requests are larger than the echo microbenchmarks' (512 B): at 64 B the
NIC message-rate limit, not the port, is the binding constraint and no
queue ever builds — see ``docs/network.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..baselines import UdEndpoint, UdRpcServer
from ..config import ClusterConfig, CongestionConfig, NetConfig
from ..sim import jitter_streams
from .metrics import Recorder, Run, RunResult
from .microbench import ECHO_RPC, _echo_handler, bench_flock_config, flock_echo

__all__ = ["IncastConfig", "run_incast_flock", "run_incast_ud",
           "switch_extras"]

#: Large enough that the egress port (12.5 B/ns), not the NIC
#: message-rate cap, is the bottleneck under fan-in.
INCAST_REQ_BYTES = 512
#: Per-iteration sender think-time jitter (uniform [0, x) ns).
INCAST_THINK_JITTER_NS = 200.0
#: UD applications must recover losses themselves, and kernel-bypass
#: RTOs are coarse — eRPC's is 5 ms, orders beyond the fabric RTT.
#: A worker whose request is tail-dropped stalls this long before
#: retrying, which is the classic incast timeout collapse: the
#: synchronized first burst overflows the shallow buffer and the
#: victims sit out the rest of the window while the port idles.
UD_TIMEOUT_NS = 5_000_000.0
#: Template for the *congested* legs; the baseline legs force it off.
#: The buffer is shallow (10 KiB per port, Collie's anomaly regime) —
#: the closed-loop inventory of this workload must exceed it, or
#: nothing ever drops and the DCQCN-vs-no-congestion-control
#: comparison has no teeth.
INCAST_CONGESTION = CongestionConfig(
    enabled=True, buffer_bytes=10_240,
    ecn_kmin_bytes=2_560, ecn_kmax_bytes=7_680,
    pfc_xoff_bytes=7_680, pfc_xon_bytes=2_560)


@dataclass
class IncastConfig:
    """Knobs of the N→1 incast experiment."""

    #: Sender nodes, all targeting the single server (the paper's
    #: testbed shape: 23→1 at full fan-in; 12 keeps runs affordable).
    n_senders: int = 12
    threads_per_client: int = 6
    outstanding: int = 2
    #: RC QPs per FLock handle.  Small on purpose: threads must *share*
    #: QPs for the combiner to batch (degree ~ threads/QP), and a small
    #: flow count lets DCQCN converge (32 flows at the 1 Gbps floor fit
    #: under the 100 Gbps port; one flow per thread would not).
    qps_per_handle: int = 2
    warmup_ns: float = 300_000.0
    measure_ns: float = 500_000.0
    seed: int = 1

    def cluster(self, congested: bool) -> ClusterConfig:
        if congested:
            cong = replace(INCAST_CONGESTION, enabled=True)
        else:
            cong = replace(INCAST_CONGESTION, enabled=False, pfc=False)
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


def run_incast_flock(cfg: IncastConfig, *, congested: bool) -> RunResult:
    """One FLock incast leg (all senders → one FLock server)."""
    run = Run("flock-incast %s" % ("cong" if congested else "base"),
              cfg.warmup_ns, cfg.measure_ns, cfg.cluster(congested))
    threads = cfg.threads_per_client
    recorder, extras, handles, _server = flock_echo(
        run, cfg, bench_flock_config(), cfg.qps_per_handle,
        [INCAST_REQ_BYTES] * threads, [INCAST_THINK_JITTER_NS] * threads,
        "flock")
    # Kept as a constant: perf/references.json pins a digest of extras.
    extras["fidelity"] = "packet"
    extras.update(switch_extras(run.fabric))
    extras["throttled_qps"] = sum(
        1 for h in handles
        for st in h.congestion_stats(run.fabric).values() if st["cnps"] > 0)
    return run.finish(recorder.result(**extras))


def run_incast_ud(cfg: IncastConfig, *, congested: bool) -> RunResult:
    """One UD-RPC incast leg (the HERD/eRPC design point)."""
    run = Run("ud-incast %s" % ("cong" if congested else "base"),
              cfg.warmup_ns, cfg.measure_ns, cfg.cluster(congested))
    sim, fabric = run.sim, run.fabric
    server = UdRpcServer(sim, run.servers[0], fabric)
    server.register_handler(ECHO_RPC, _echo_handler(run))

    recorder = Recorder(sim)
    jitter = jitter_streams(cfg.seed ^ 0x7EA)
    endpoints = []
    for node in run.clients:
        for _t in range(cfg.threads_per_client):
            endpoint = UdEndpoint(sim, node, fabric, timeout_ns=UD_TIMEOUT_NS)
            args = (server, server.qp_for_client(len(endpoints)), ECHO_RPC,
                    INCAST_REQ_BYTES)
            endpoints.append(endpoint)
            run.loops(recorder, endpoint.call, args, cfg.outstanding,
                      INCAST_THINK_JITTER_NS, jitter)

    run.window([recorder])
    extras = {"fidelity": "packet", **switch_extras(fabric)}
    return run.finish(recorder.result(
        system="ud-rpc",
        lost_requests=sum(e.lost_requests for e in endpoints),
        server_cpu=round(run.servers[0].cpu.utilization(), 3),
        **extras,
    ))
