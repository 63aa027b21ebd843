"""The shared run lifecycle (:class:`repro.harness.metrics.Run`).

Every figure runner drives one ``Run``: simulator first, then telemetry,
audit registry and host-time profiler, all before the cluster is built.
Each of the fourteen runners is driven here at a tiny config with the
auditors and the profiler on, so a runner that skips part of the
lifecycle fails loudly.  A structural pin keeps simulator construction
and loop selection in the one module that defines ``Run``, and cluster
construction out of the bench modules.
"""

import pathlib

import pytest

from repro.harness import (
    IncastConfig,
    IndexBenchConfig,
    MicrobenchConfig,
    TxnBenchConfig,
    run_erpc,
    run_erpc_index,
    run_fasst_txn,
    run_flock,
    run_flock_index,
    run_flocktx,
    run_incast_flock,
    run_incast_ud,
    run_multitenancy,
    run_raw_reads,
    run_rc,
    run_thread_sched,
    run_ud_rpc,
)
from repro.harness.metrics import Run
from repro.obs.simprof import PROFILE_ENV
from repro.search.runner import ScenarioConfig, run_scenario_leg
from repro.workloads import BimodalSize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _micro():
    return MicrobenchConfig(n_clients=2, threads_per_client=2)


def _txn():
    return TxnBenchConfig(n_clients=2, threads_per_client=1,
                          coroutines_per_thread=2,
                          subscribers_per_server=200)


def _index():
    return IndexBenchConfig(n_clients=2, threads_per_client=2, n_keys=1000)


def _incast():
    return IncastConfig(n_senders=2, threads_per_client=2)


#: runner name -> call returning the RunResult that carries the run's
#: profile and audit report.  Runners without a ``profile`` parameter
#: are profiled through ``REPRO_PROFILE`` (set for every case).
RUNNERS = {
    "run_flock": lambda: run_flock(_micro(), audit=True, profile=True),
    "run_erpc": lambda: run_erpc(_micro(), audit=True, profile=True),
    "run_rc": lambda: run_rc(_micro(), audit=True, profile=True),
    "run_thread_sched": lambda: run_thread_sched(
        MicrobenchConfig(n_clients=2, threads_per_client=10,
                         warmup_ns=60_000.0, measure_ns=50_000.0,
                         sizegen=BimodalSize(n_threads=10, large_size=512)),
        scheduling=True, audit=True, profile=True)["small"],
    "run_raw_reads": lambda: run_raw_reads(8, n_clients=2, audit=True,
                                           profile=True),
    "run_ud_rpc": lambda: run_ud_rpc(4, n_clients=2, audit=True,
                                     profile=True),
    "run_flocktx": lambda: run_flocktx(_txn(), audit=True),
    "run_fasst_txn": lambda: run_fasst_txn(_txn(), audit=True),
    "run_flock_index": lambda: run_flock_index(_index(), audit=True)["get"],
    "run_erpc_index": lambda: run_erpc_index(_index(), audit=True)["get"],
    "run_incast_flock": lambda: run_incast_flock(_incast(), congested=True,
                                                 audit=True),
    "run_incast_ud": lambda: run_incast_ud(_incast(), congested=True,
                                           audit=True),
    "run_multitenancy": lambda: run_multitenancy(
        {"a": 2.0, "b": 1.0}, clients_per_tenant=1, threads=2,
        duration_ns=100_000.0, audit=True, profile=True),
    "run_scenario_leg": lambda: run_scenario_leg(
        ScenarioConfig(n_senders=2, threads_per_client=2), congested=True,
        audit=True),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_is_audited_and_profiled(name, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    monkeypatch.setenv(PROFILE_ENV, "1")
    result = RUNNERS[name]()
    assert result.ops > 0
    assert result.audit_report is not None and result.audit_report.ok
    assert result.host["events"] > 0
    buckets = result.profile["host"]["buckets"]
    assert sum(b["events"] for b in buckets) == result.host["events"]
    assert result.slo is not None


def test_unscaled_run_keeps_its_windows(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    scaled = Run("scaled", 600.0, 500.0)
    assert (scaled.warmup, scaled.measure) == pytest.approx((60.0, 50.0))
    unscaled = Run("unscaled", 600.0, 500.0, scaled=False)
    assert (unscaled.warmup, unscaled.measure) == (600.0, 500.0)


def test_only_run_builds_simulators_and_picks_loops():
    """``Simulator(`` and ``run_profiled`` appear in exactly one runner
    module: the one defining :class:`repro.harness.metrics.Run`.  Bench
    modules build neither a simulator nor a cluster: they run specs."""
    offenders = []
    for package in ("harness", "search"):
        for path in sorted((SRC / package).rglob("*.py")):
            text = path.read_text()
            if "Simulator(" in text or "run_profiled" in text:
                offenders.append(path.relative_to(ROOT).as_posix())
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        text = path.read_text()
        if any(s in text for s in ("Simulator(", "build_cluster(",
                                   "run_profiled")):
            offenders.append(path.relative_to(ROOT).as_posix())
    assert offenders == ["src/repro/harness/metrics.py"]
