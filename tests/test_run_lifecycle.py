"""The shared run lifecycle (:class:`repro.harness.metrics.Run`).

Every figure runner drives one ``Run``: simulator first, then telemetry,
audit switch and host-time profiler, all before the cluster is built.
Each of the fourteen runners is driven here at a tiny config with the
auditors and the profiler on, so a runner that skips part of the
lifecycle fails loudly.  A structural pin keeps simulator and cluster
construction and loop selection in the one module that defines ``Run``.
"""

import pathlib

import pytest

from repro.config import ClusterConfig
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
from repro.search.runner import ScenarioConfig, run_scenario_leg

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
#: profile and audit report.  Every runner is audited and profiled
#: through the process's switches (``REPRO_AUDIT``, ``REPRO_PROFILE``).
RUNNERS = {
    "run_flock": lambda: run_flock(_micro()),
    "run_erpc": lambda: run_erpc(_micro()),
    "run_rc": lambda: run_rc(_micro()),
    "run_thread_sched": lambda: run_thread_sched(
        MicrobenchConfig(n_clients=2, threads_per_client=10,
                         warmup_ns=60_000.0, measure_ns=50_000.0),
        512, scheduling=True)["small"],
    "run_raw_reads": lambda: run_raw_reads(8, n_clients=2),
    "run_ud_rpc": lambda: run_ud_rpc(4, n_clients=2),
    "run_flocktx": lambda: run_flocktx(_txn()),
    "run_fasst_txn": lambda: run_fasst_txn(_txn()),
    "run_flock_index": lambda: run_flock_index(_index())["get"],
    "run_erpc_index": lambda: run_erpc_index(_index())["get"],
    "run_incast_flock": lambda: run_incast_flock(_incast(), congested=True),
    "run_incast_ud": lambda: run_incast_ud(_incast(), congested=True),
    "run_multitenancy": lambda: run_multitenancy(
        {"a": 2.0, "b": 1.0}, clients_per_tenant=1, threads=2,
        duration_ns=100_000.0),
    "run_scenario_leg": lambda: run_scenario_leg(
        ScenarioConfig(n_senders=2, threads_per_client=2), congested=True),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_is_audited_and_profiled(name, monkeypatch, audited,
                                       profiled):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    result = RUNNERS[name]()
    assert result.ops > 0
    assert result.audit_report is not None and result.audit_report.ok
    assert result.host["events"] > 0
    buckets = result.profile["host"]["buckets"]
    assert sum(b["events"] for b in buckets) == result.host["events"]
    assert result.slo is not None


def test_unscaled_run_keeps_its_windows(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    cluster = ClusterConfig(n_clients=1)
    scaled = Run("scaled", 600.0, 500.0, cluster)
    assert (scaled.warmup, scaled.measure) == pytest.approx((60.0, 50.0))
    unscaled = Run("unscaled", 600.0, 500.0, cluster, scaled=False)
    assert (unscaled.warmup, unscaled.measure) == (600.0, 500.0)


def test_only_run_builds_simulators_and_picks_loops():
    """``Simulator(``, ``build_cluster(`` and ``run_profiled`` appear in
    exactly one runner module: the one defining
    :class:`repro.harness.metrics.Run`.  Bench modules build neither a
    simulator nor a cluster: they run specs."""
    offenders = []
    for package in ("harness", "search"):
        for path in sorted((SRC / package).rglob("*.py")):
            text = path.read_text()
            if any(s in text for s in ("Simulator(", "build_cluster(",
                                       "run_profiled")):
                offenders.append(path.relative_to(ROOT).as_posix())
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        text = path.read_text()
        if any(s in text for s in ("Simulator(", "build_cluster(",
                                   "run_profiled")):
            offenders.append(path.relative_to(ROOT).as_posix())
    assert offenders == ["src/repro/harness/metrics.py"]
