"""Curated search-discovered anomaly scenarios, frozen as regression gates.

Each entry is a point the adversarial search once found (see
``docs/search.md`` for the commands that found them), kept verbatim so
the committed baseline in
``benchmarks/baselines/BENCH_search_<name>.json`` pins the *exact*
pathological configuration.  Adding a point by hand: give a value for
every scenario field of :class:`repro.search.runner.ScenarioConfig`,
register it here, run ``benchmarks/test_ext_search.py`` at full scale,
and commit the emitted scorecard as its baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CuratedScenario", "CURATED_SCENARIOS"]


@dataclass(frozen=True)
class CuratedScenario:
    """One committed find: the point plus its expected pathology."""

    name: str
    description: str
    #: The frozen point: one value per ScenarioConfig scenario field.
    point: Dict
    #: Objective that surfaced it and the root seed of that search.
    objective: str
    seed: int
    #: Resource expected to gain the most critical-path share between
    #: the uncongested and congested legs (the explanation's suspect).
    expected_top_resource: Optional[str] = None
    #: Whether the within-run detectors flag this scenario at full
    #: scale; steady-state pathologies legitimately have no mid-run
    #: transition and gate on the collapse bound instead.
    expect_anomaly_records: bool = True
    #: Upper bound on congested/uncongested goodput (the collapse).
    max_goodput_retained: Optional[float] = None


#: The finds of the search runs documented in docs/search.md.
CURATED_SCENARIOS: Dict[str, CuratedScenario] = {}


def _register(scenario: CuratedScenario) -> None:
    CURATED_SCENARIOS[scenario.name] = scenario


_register(CuratedScenario(
    name="dcqcn_collapse",
    description=(
        "Lossy-fabric congestion collapse: 10 senders of mostly-872B "
        "requests (18% of threads at 1788B) against a 48KB egress "
        "buffer overwhelm DCQCN — ~3k tail drops and ~7k ECN marks per "
        "window throttle the flows to a fifth of their uncongested "
        "goodput while p99 inflates ~20x, with mid-run p99 changepoints "
        "as the rate controller hunts.  Found by repro search "
        "--objective goodput_collapse --seed 11 --budget 24 (rank 6; "
        "the lossless-mode ranks 1-4 are covered by pfc_pause_storm)."),
    point={
        "n_senders": 10, "threads_per_client": 5, "outstanding": 4,
        "req_size": 872, "large_size": 1788, "large_fraction": 0.184746,
        "zipf_theta": 0.482756, "handler_ns": 67.633,
        "qp_cache_entries": 72, "credit_batch": 11, "qps_per_handle": 4,
        "buffer_bytes": 49261, "dcqcn": True, "pfc": False,
        "dcqcn_rate_ai_gbps": 4.53184, "dcqcn_min_rate_gbps": 3.34541,
    },
    objective="goodput_collapse",
    seed=11,
    expected_top_resource="switch_queue",
    expect_anomaly_records=True,
    max_goodput_retained=0.5,
))

_register(CuratedScenario(
    name="pfc_pause_storm",
    description=(
        "Lossless head-of-line collapse: 15 senders with a 48% "
        "large-message (5.6KB) tenant mix fill a 47KB egress buffer; "
        "PFC pauses propagate to every upstream port and the fabric "
        "spends ~78% of the congested leg's critical path in "
        "pause-induced stalls — goodput drops ~9x with zero drops and "
        "a steady (changepoint-free) storm.  Found by repro search "
        "--objective goodput_collapse --seed 11 --budget 24 (rank 1)."),
    point={
        "n_senders": 15, "threads_per_client": 4, "outstanding": 2,
        "req_size": 624, "large_size": 5627, "large_fraction": 0.482842,
        "zipf_theta": 0.663743, "handler_ns": 53.6789,
        "qp_cache_entries": 632, "credit_batch": 7, "qps_per_handle": 8,
        "buffer_bytes": 47231, "dcqcn": True, "pfc": True,
        "dcqcn_rate_ai_gbps": 2.22556, "dcqcn_min_rate_gbps": 3.89397,
    },
    objective="goodput_collapse",
    seed=11,
    expected_top_resource="pfc_pause",
    expect_anomaly_records=False,
    max_goodput_retained=0.3,
))
