"""Scenario replay: one point -> one explained measurement.

A point runs the same two-leg protocol as the incast benchmark: the
FLock echo workload once on the contention-free fabric (its own
uncongested baseline) and once with the switched-fabric model and the
point's fabric knobs.  The pair yields tail inflation, goodput
retention, anomaly records from both legs and the critical-path
attribution shift between the legs.

All of a point's randomness derives from
``Streams(seed).child("search/<fingerprint>")``, so the result is a pure
function of (root seed, point).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import List

from ..config import (
    GBPS,
    ClusterConfig,
    CongestionConfig,
    FlockConfig,
    NetConfig,
    NicConfig,
)
from ..obs import Telemetry
from ..obs.explain import (
    attribution_blocks,
    explain_between,
    shift_table,
    top_shift,
)
from ..sim import Streams
from ..workloads import BimodalSize
from ..harness.incastbench import INCAST_THINK_JITTER_NS, switch_extras
from ..harness.metrics import Run, RunResult
from ..harness.microbench import bench_flock_config, flock_echo

__all__ = ["ScenarioConfig", "run_scenario_leg", "fingerprint",
           "evaluate_point", "BASE_LABEL", "CONG_LABEL"]

BASE_LABEL = "search base"
CONG_LABEL = "search cong"


@dataclass
class ScenarioConfig:
    """A fully-resolved scenario (one point bound to a seed)."""

    n_senders: int = 12
    threads_per_client: int = 6
    outstanding: int = 2
    req_size: int = 512
    large_size: int = 4096
    large_fraction: float = 0.0
    zipf_theta: float = 0.0
    handler_ns: float = 100.0
    qp_cache_entries: int = 560
    credit_batch: int = 32
    qps_per_handle: int = 2
    buffer_bytes: int = 10_240
    dcqcn: bool = True
    pfc: bool = False
    dcqcn_rate_ai_gbps: float = 5.0
    dcqcn_min_rate_gbps: float = 1.0
    seed: int = 1
    warmup_ns: float = 300_000.0
    measure_ns: float = 500_000.0

    @classmethod
    def from_point(cls, point: dict, seed: int = 1) -> "ScenarioConfig":
        return cls(seed=seed, **point)

    def congestion(self, enabled: bool) -> CongestionConfig:
        """ECN/PFC thresholds derive from the buffer depth (the usual
        shallow-ToR provisioning rule: mark/pause at 3/4, resume at
        1/4)."""
        quarter = max(1, self.buffer_bytes // 4)
        return CongestionConfig(
            enabled=enabled,
            buffer_bytes=self.buffer_bytes,
            ecn_kmin_bytes=quarter, ecn_kmax_bytes=3 * quarter,
            pfc=self.pfc if enabled else False,
            pfc_xoff_bytes=3 * quarter, pfc_xon_bytes=quarter,
            dcqcn_enabled=self.dcqcn,
            dcqcn_rate_ai_bytes_per_ns=self.dcqcn_rate_ai_gbps * GBPS,
            dcqcn_rate_hai_bytes_per_ns=5 * self.dcqcn_rate_ai_gbps * GBPS,
            dcqcn_min_rate_bytes_per_ns=self.dcqcn_min_rate_gbps * GBPS)

    def cluster(self, congested: bool) -> ClusterConfig:
        return ClusterConfig(
            n_clients=self.n_senders, seed=self.seed,
            nic=NicConfig(qp_cache_entries=self.qp_cache_entries),
            net=replace(NetConfig(), congestion=self.congestion(congested)))

    def flock(self) -> FlockConfig:
        return bench_flock_config(
            credit_batch=self.credit_batch,
            credit_renew_threshold=max(1, self.credit_batch // 2),
            qps_per_handle=self.qps_per_handle)

    def sizes(self) -> List[int]:
        """Per-thread message sizes: ``large_fraction`` of each client's
        threads send ``large_size``, the rest ``req_size``."""
        threads = range(self.threads_per_client)
        if self.large_fraction <= 0.0:
            return [self.req_size for _ in threads]
        mix = BimodalSize(self.threads_per_client,
                          large_size=max(self.large_size, self.req_size),
                          small_size=self.req_size,
                          large_fraction=self.large_fraction)
        return [mix.next(t) for t in threads]

    def think_scale(self, thread_id: int) -> float:
        """Zipfian tenant-activity skew: thread rank 0 is the hot tenant
        (full rate); colder ranks think ``(rank+1)**theta`` times longer.
        theta=0 collapses to uniform tenants."""
        return (thread_id + 1) ** self.zipf_theta


def run_scenario_leg(cfg: ScenarioConfig, *, congested: bool,
                     telemetry=None) -> RunResult:
    """One leg of a scenario: all senders -> one FLock server."""
    run = Run(CONG_LABEL if congested else BASE_LABEL, cfg.warmup_ns,
              cfg.measure_ns, cfg.cluster(congested), telemetry=telemetry)
    recorder, extras, _handles, _server = flock_echo(
        run, cfg, cfg.flock(), cfg.qps_per_handle, cfg.sizes(),
        [INCAST_THINK_JITTER_NS * cfg.think_scale(t)
         for t in range(cfg.threads_per_client)],
        "search-%s" % ("cong" if congested else "base"),
        handler_ns=cfg.handler_ns)
    extras.update(switch_extras(run.fabric))
    return run.finish(recorder.result(**extras))


def _leg_summary(res: RunResult) -> dict:
    """The JSON-safe per-leg block that rides in an evaluation."""
    keep = ("server_cpu", "mean_coalescing_degree", "peak_port_depth_bytes",
            "switch_drops", "ecn_marks", "pfc_pauses", "cnps")
    out = {
        "ops": res.ops,
        "mops": round(res.mops, 4),
        "median_us": round(res.median_us, 3),
        "p99_us": round(res.p99_us, 3),
        "p999_us": round(res.p999_us, 3),
    }
    for key in keep:
        if key in res.extras:
            out[key] = res.extras[key]
    return out


def fingerprint(point: dict) -> str:
    """Stable 16-hex-digit identity of a point: the hash of its
    canonical JSON.  The replay's seed derives from it."""
    canon = json.dumps(point, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def evaluate_point(point: dict, seed: int) -> dict:
    """Replay one point: baseline + congested leg, traced and explained.

    Each leg runs under a private span-collecting telemetry.  The
    JSON-safe result carries both legs' headline numbers and anomaly
    records, per-leg attribution shares, the baseline->scenario shift
    table with its top resource, and ``explanations``, which joins each
    anomaly to that shift (:func:`repro.obs.explain.explain_between`).
    """
    fp = fingerprint(point)
    streams = Streams(seed).child("search/%s" % fp)
    cfg = ScenarioConfig.from_point(point, seed=streams.seed)

    legs = {}
    blocks = {}
    for congested, leg in ((False, "base"), (True, "cong")):
        tel = Telemetry(wants_spans=True)
        legs[leg] = run_scenario_leg(cfg, congested=congested, telemetry=tel)
        blocks.update(attribution_blocks(tel))

    base, cong = legs["base"], legs["cong"]
    anomalies = {"base": list(base.anomalies), "cong": list(cong.anomalies)}
    shifts = shift_table(blocks.get(BASE_LABEL, {}).get("shares", {}),
                         blocks.get(CONG_LABEL, {}).get("shares", {}))
    return {
        "fingerprint": fp,
        "point": point,
        "seed": streams.seed,
        "baseline": _leg_summary(base),
        "scenario": _leg_summary(cong),
        "tail_ratio": round(cong.p99_us / max(cong.median_us, 1e-9), 4),
        "goodput_retained": round(cong.mops / max(base.mops, 1e-9), 4),
        "anomalies": anomalies,
        "attribution": blocks,
        "shift": shifts,
        "top_resource": top_shift(shifts),
        "explanations": [
            explain_between(anomaly, BASE_LABEL, CONG_LABEL, blocks).to_dict()
            for side in ("cong", "base") for anomaly in anomalies[side]],
    }
