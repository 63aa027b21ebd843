"""Harness: recorders, result math, tables, and tiny end-to-end runs."""

import pytest

from repro.harness import (
    IndexBenchConfig,
    MicrobenchConfig,
    Recorder,
    RunResult,
    TxnBenchConfig,
    format_table,
    run_erpc,
    run_erpc_index,
    run_fasst_txn,
    run_flock,
    run_flock_index,
    run_flocktx,
    run_raw_reads,
    run_rc,
    run_ud_rpc,
)
from repro.harness.metrics import closed_loop
from repro.sim import Simulator

pytestmark = pytest.mark.usefixtures("half_windows")


class TestRecorder:
    def test_window_filters_completions(self):
        sim = Simulator()
        recorder = Recorder(sim)
        recorder.open_window(100, 200)
        sim.now = 50
        recorder.record(started_ns=0)       # before window
        sim.now = 150
        recorder.record(started_ns=100)     # inside
        sim.now = 250
        recorder.record(started_ns=200)     # after
        assert recorder.ops == 1
        assert recorder.total_ops == 3
        assert recorder.latencies_ns == [50]

    def test_result_units(self):
        sim = Simulator()
        recorder = Recorder(sim)
        recorder.open_window(0, 1_000_000)  # 1 ms
        sim.now = 500_000
        for _ in range(1000):
            recorder.record(started_ns=sim.now - 5_000)
        result = recorder.result()
        assert result.mops == pytest.approx(1.0)  # 1000 ops / 1 ms
        assert result.median_us == pytest.approx(5.0)
        assert result.p99_us == pytest.approx(5.0)

    def test_empty_window_rejected(self):
        recorder = Recorder(Simulator())
        with pytest.raises(ValueError):
            recorder.open_window(10, 10)

    def test_result_without_window_rejected(self):
        recorder = Recorder(Simulator())
        with pytest.raises(RuntimeError):
            recorder.result()


class TestClosedLoop:
    @staticmethod
    def open_recorder(sim):
        recorder = Recorder(sim)
        recorder.open_window(0.0, 1e9)
        return recorder

    def test_no_think_time_calls_at_zero_and_arms_no_timer(self):
        sim = Simulator()
        issued = []

        def call(tag):
            issued.append((tag, sim.now))
            yield sim.event()  # never answered

        sim.spawn(closed_loop(sim, self.open_recorder(sim), call, ("x",)))
        sim.run()
        assert issued == [("x", 0.0)]
        assert sim.events_processed == 1  # the kick-start alone

    def test_think_time_precedes_every_call(self):
        class Half:
            def random(self):
                return 0.5

        sim = Simulator()
        issued = []

        def call():
            issued.append(sim.now)
            yield sim.timeout(10.0)
            return "ok"

        recorder = self.open_recorder(sim)
        sim.spawn(closed_loop(sim, recorder, call, (), 100.0, Half()))
        sim.run(until=175.0)
        assert issued == [50.0, 110.0, 170.0]
        assert recorder.latencies_ns == [10.0, 10.0]

    def test_lost_request_is_not_recorded(self):
        sim = Simulator()
        responses = iter(["a", None, "b", None])

        def call():
            yield sim.timeout(100.0)
            return next(responses)

        recorder = self.open_recorder(sim)
        sim.spawn(closed_loop(sim, recorder, call, ()))
        sim.run(until=450.0)
        assert recorder.total_ops == 2
        assert recorder.latencies_ns == [100.0, 100.0]


class TestRunResult:
    def test_zero_duration(self):
        result = RunResult(ops=0, duration_ns=0, latency={
            "count": 0, "median": 0.0, "p99": 0.0, "mean": 0.0,
            "min": 0.0, "max": 0.0})
        assert result.mops == 0.0

    def test_row(self):
        result = RunResult(ops=100, duration_ns=1e6, latency={
            "count": 100, "median": 2000.0, "p99": 9000.0, "mean": 2500.0,
            "min": 1000.0, "max": 9500.0})
        assert result.mops == pytest.approx(0.1)
        assert result.median_us == 2.0
        assert result.p99_us == 9.0
        assert result.p999_us == 0.0  # legacy latency dict without p999

    def test_row_carries_p999(self):
        result = RunResult(ops=100, duration_ns=1e6, latency={
            "count": 100, "median": 2000.0, "p99": 9000.0,
            "p999": 9400.0, "mean": 2500.0, "min": 1000.0, "max": 9500.0})
        assert result.p999_us == pytest.approx(9.4)


class TestTables:
    def test_format_table(self):
        text = format_table("Fig X", ["a", "bb"], [[1, 2.345], [10, 3.0]])
        assert "Fig X" in text
        assert "2.35" in text  # float formatting
        lines = text.splitlines()
        assert len(lines) == 7  # title, rule, header, rule, 2 rows, rule


SMALL = MicrobenchConfig(n_clients=3, threads_per_client=4, outstanding=1,
                         warmup_ns=150_000, measure_ns=150_000)


class TestMicrobenchIntegration:
    def test_flock_runs_and_measures(self):
        result = run_flock(SMALL)
        assert result.ops > 0
        assert result.mops > 0
        assert result.median_us > 0
        assert result.extras["system"] == "flock"

    def test_flock_ablations_run(self):
        base = run_flock(SMALL)
        no_coalesce = run_flock(SMALL, coalescing=False)
        assert no_coalesce.extras["mean_coalescing_degree"] == pytest.approx(1.0)
        assert base.ops > 0 and no_coalesce.ops > 0

    def test_erpc_runs(self):
        result = run_erpc(SMALL)
        assert result.ops > 0
        assert result.extras["system"] == "erpc"

    def test_rc_sharing_variants_run(self):
        dedicated = run_rc(SMALL, threads_per_qp=1)
        shared = run_rc(SMALL, threads_per_qp=4)
        assert dedicated.ops > 0 and shared.ops > 0

    def test_raw_reads_runs(self):
        result = run_raw_reads(24, n_clients=3)
        assert result.mops > 0
        assert result.extras["total_qps"] == 24

    def test_ud_rpc_runs(self):
        result = run_ud_rpc(12, n_clients=3)
        assert result.mops > 0

    def test_deterministic_given_seed(self):
        a = run_flock(SMALL)
        b = run_flock(SMALL)
        assert a.ops == b.ops
        assert a.latency == b.latency


class TestTxnBenchIntegration:
    CFG = TxnBenchConfig(n_clients=2, threads_per_client=2,
                         coroutines_per_thread=3,
                         subscribers_per_server=600,
                         accounts_per_thread=300,
                         warmup_ns=200_000, measure_ns=200_000)

    def test_flocktx_tatp(self):
        result = run_flocktx(self.CFG)
        assert result.extras["committed"] > 0
        assert result.extras["system"] == "flocktx"

    def test_fasst_tatp(self):
        result = run_fasst_txn(self.CFG)
        assert result.extras["committed"] > 0

    def test_smallbank_both(self):
        from dataclasses import replace
        cfg = replace(self.CFG, workload="smallbank")
        flock_result = run_flocktx(cfg)
        fasst_result = run_fasst_txn(cfg)
        assert flock_result.extras["committed"] > 0
        assert fasst_result.extras["committed"] > 0

    def test_unknown_workload_rejected(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(self.CFG, workload="nope")


class TestIndexBenchIntegration:
    CFG = IndexBenchConfig(n_clients=2, threads_per_client=3,
                           n_keys=20_000, warmup_ns=200_000,
                           measure_ns=200_000)

    def test_flock_index(self):
        results = run_flock_index(self.CFG)
        assert results["get"].ops > 0
        assert results["scan"].ops > 0
        assert results["total_mops"] > 0

    def test_erpc_index(self):
        results = run_erpc_index(self.CFG)
        assert results["get"].ops > 0

    def test_mix_is_90_10(self):
        results = run_flock_index(self.CFG)
        gets, scans = results["get"].ops, results["scan"].ops
        assert gets / (gets + scans) == pytest.approx(0.9, abs=0.05)
