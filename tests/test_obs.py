"""The observability subsystem: spans, metrics registry, export, wiring.

Covers the span lifecycle (open/close/adopt/finish, nesting of phases),
registry arithmetic and memoization, the disabled-mode no-op contracts,
Chrome-trace round-trip validity, and the acceptance scenario: a traced
Fig. 2a sweep whose RNIC cache-miss/PCIe-stall phases grow once the QP
count overruns the NIC's QP cache.
"""

import json

import pytest

from repro.config import ClusterConfig, NicConfig
from repro.harness.microbench import (
    MicrobenchConfig,
    run_flock,
    run_raw_reads,
)
from repro.harness.incastbench import IncastConfig, run_incast_flock
from repro.harness.txnbench import TxnBenchConfig, run_flocktx
from repro.net import build_cluster
from repro.obs.export import chrome_trace, format_breakdown, write_chrome_trace
from repro.obs.registry import Registry, ledger_state
from repro.obs.span import PHASES, NullSpanLog, Span, SpanLog, null_span_log
from repro.obs.telemetry import Telemetry, current_telemetry, disable, enable


def _folded(states):
    """A registry holding the fold of metrics ``states`` in order."""
    registry = Registry()
    for state in states:
        registry.merge_state(state)
    return registry


def _total(span, name):
    """Summed duration of ``span``'s intervals named ``name``."""
    return sum(t1 - t0 for phase, t0, t1 in span.phases if phase == name)


class TestSpan:
    def test_lifecycle(self):
        log = SpanLog()
        span = log.begin("rpc", track="c0/t0", t=100.0, rpc_id=1)
        span.open("client_queue", 100.0)
        span.close("client_queue", 150.0)
        span.add_phase("wire", 150.0, 170.0)
        assert span.t1 is None and len(log) == 0
        span.finish(200.0)
        assert span.t1 == 200.0
        assert span.duration == 100.0
        assert len(log) == 1
        assert _total(span, "client_queue") == 50.0
        assert _total(span, "wire") == 20.0

    def test_finish_idempotent(self):
        log = SpanLog()
        span = log.begin("rpc", track="x", t=0.0)
        span.finish(10.0)
        span.finish(99.0)
        assert span.t1 == 10.0
        assert len(log) == 1

    def test_finish_closes_open_phases(self):
        log = SpanLog()
        span = log.begin("rpc", track="x", t=0.0)
        span.open("server_handler", 5.0)
        span.finish(12.0)
        assert _total(span, "server_handler") == 7.0

    def test_close_unopened_phase_is_noop(self):
        log = SpanLog()
        span = log.begin("rpc", track="x", t=0.0)
        span.close("never_opened", 50.0)
        assert span.phases == []

    def test_nested_and_repeated_phases(self):
        # The same phase can occur several times (e.g. two PCIe stalls),
        # and phases may nest inside each other; totals sum all of them.
        log = SpanLog()
        span = log.begin("rpc", track="x", t=0.0)
        span.add_phase("nic_tx", 0.0, 100.0)
        span.add_phase("pcie_stall", 10.0, 30.0)
        span.add_phase("pcie_stall", 50.0, 60.0)
        span.finish(100.0)
        assert _total(span, "pcie_stall") == 30.0
        assert _total(span, "nic_tx") == 100.0

    def test_adopt_copies_phases(self):
        log = SpanLog()
        msg = log.begin("flock.msg", track="hw", t=0.0)
        msg.add_phase("doorbell_mmio", 0.0, 5.0)
        msg.add_phase("wire", 5.0, 15.0)
        rpc = log.begin("rpc", track="t0", t=0.0)
        assert not msg.donor
        rpc.adopt(msg)
        assert rpc.phases == msg.phases
        assert msg.donor

    def test_bump(self):
        log = SpanLog()
        span = log.begin("rpc", track="x", t=0.0)
        span.bump("qp_misses")
        span.bump("qp_misses")
        assert span.args["qp_misses"] == 2


class TestSpanLog:
    def test_max_spans_bound(self):
        log = SpanLog(max_spans=2)
        for i in range(5):
            log.begin("s", track="x", t=float(i)).finish(float(i) + 1)
        assert len(log) == 2
        assert log.dropped == 3

    def test_breakdown(self):
        log = SpanLog()
        for _ in range(2):
            span = log.begin("rpc", track="x", t=0.0)
            span.add_phase("wire", 0.0, 10.0)
            span.add_phase("server_handler", 10.0, 40.0)
            span.finish(40.0)
        table = log.breakdown("rpc")
        assert table["wire"]["count"] == 2
        assert table["wire"]["total_ns"] == 20.0
        assert table["wire"]["mean_ns"] == 10.0
        assert table["server_handler"]["share"] == pytest.approx(0.75)
        assert table["wire"]["share"] == pytest.approx(0.25)

    def test_breakdown_filters_by_name(self):
        log = SpanLog()
        a = log.begin("rpc", track="x", t=0.0)
        a.add_phase("wire", 0.0, 10.0)
        a.finish(10.0)
        b = log.begin("flock.msg", track="x", t=0.0)
        b.add_phase("wire", 0.0, 90.0)
        b.finish(90.0)
        assert log.breakdown("rpc")["wire"]["total_ns"] == 10.0
        assert log.breakdown()["wire"]["total_ns"] == 100.0

    def test_runs_become_pids(self):
        log = SpanLog()
        p1 = log.new_run("first")
        s1 = log.begin("s", track="x", t=0.0)
        p2 = log.new_run("second")
        s2 = log.begin("s", track="x", t=0.0)
        assert (s1.pid, s2.pid) == (p1, p2)
        assert p1 != p2


class TestRegistry:
    def test_counter_math(self):
        reg = Registry()
        reg.add("rnic.qp_cache.hits", 1)
        reg.add("rnic.qp_cache.hits", 4)
        value = reg.snapshot()["counters"]["rnic.qp_cache.hits"]
        assert value == 5 and isinstance(value, float)

    def test_memoized_by_name_and_labels(self):
        reg = Registry()
        reg.add("x", 1, nic=1)
        reg.add("x", 2, nic=1)
        reg.add("x", 4, nic=2)
        reg.observe("h", 1.0, nic=1)
        reg.observe("h", 2.0, nic=1)
        reg.observe("h", 4.0, nic=2)
        snap = reg.snapshot()
        assert snap["counters"] == {"x{nic=1}": 3.0, "x{nic=2}": 4.0}
        assert {name: h["count"] for name, h in snap["histograms"].items()
                } == {"h{nic=1}": 2, "h{nic=2}": 1}

    def test_gauge(self):
        reg = Registry()
        reg.set("depth", 7)
        reg.set("depth", 3)
        assert reg.snapshot()["gauges"] == {"depth": 3.0}

    def test_histogram(self):
        reg = Registry()
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.observe("lat", v)
        summary = reg.snapshot()["histograms"]["lat"]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)

    def test_value_counts_fold_like_single_observations(self):
        """A component's {value: count} ledger, handed over with
        ``observe(name, value, n)``, gives the same histogram as the
        observations one at a time; ``n=0`` reports an empty one."""
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        one, folded = Registry(), Registry()
        for v in values:
            one.observe("deg", v)
        folded.observe("deg", 0, 0)
        folded.observe("empty", 0, 0)
        for v in sorted(set(values)):
            folded.observe("deg", v, values.count(v))
        assert folded.export_state()["histograms"][0] == \
            one.export_state()["histograms"][0]
        assert folded.snapshot()["histograms"]["empty"]["count"] == 0

    def test_snapshot_and_exports(self):
        reg = Registry()
        reg.add("a", 2, nic=0)
        reg.set("b", 1.5)
        reg.observe("c", 9.0)
        snap = reg.snapshot()
        assert snap["counters"]["a{nic=0}"] == 2
        assert snap["gauges"]["b"] == 1.5
        assert snap["histograms"]["c"]["count"] == 1
        doc = json.loads(reg.to_json())
        assert doc["counters"]["a{nic=0}"] == 2
        csv_text = reg.to_csv()
        assert csv_text.startswith("type,name,field,value\n")
        assert "counter,a{nic=0},value,2.0\n" in csv_text


class TestDisabledMode:
    def test_kernel_carries_no_registry(self):
        """The simulator knows only whether it is instrumented; no
        module of the kernel imports the metrics registry."""
        import ast
        import pathlib

        import repro.sim
        from repro.sim import Simulator

        sim = Simulator()
        assert not hasattr(sim, "metrics")
        assert sim.instrumented is False
        for path in pathlib.Path(repro.sim.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    names = [base] + ["%s.%s" % (base, a.name)
                                      for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any(name.endswith("obs.registry")
                               for name in names), path.name

    def test_null_span_log(self):
        assert not null_span_log.enabled
        assert null_span_log.begin("s", track="x", t=0.0) is None
        assert len(null_span_log) == 0
        assert null_span_log.breakdown() == {}

    def test_fresh_simulator_defaults_to_null(self):
        from repro.sim import Simulator
        sim = Simulator()
        assert isinstance(sim.spans, NullSpanLog)

    def test_uninstrumented_run_keeps_no_distribution(self, monkeypatch):
        """With no telemetry and no audit, the CQs and FLock endpoints
        leave their value-count ledgers empty."""
        from repro.flock.rpc import FlockClient, FlockServer
        from repro.harness.metrics import Run
        from repro.verbs.cq import CompletionQueue

        sims = []
        finish = Run.finish

        def capture(run, result):
            sims.append(run.sim)
            return finish(run, result)

        monkeypatch.setattr(Run, "finish", capture)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        run_flock(MicrobenchConfig(n_clients=2))
        (sim,) = sims
        assert sim.instrumented is False
        ledgers = {CompletionQueue: ("depths", "poll_batches"),
                   FlockServer: ("response_degrees",),
                   FlockClient: ("coalescing_degrees", "message_bytes")}
        seen = set()
        for component in sim.components:
            for kind, names in ledgers.items():
                if isinstance(component, kind):
                    seen.add(kind)
                    for name in names:
                        assert getattr(component, name) == {}, name
        assert seen == set(ledgers)


class TestChromeTrace:
    def _sample_log(self):
        log = SpanLog()
        log.new_run("runA")
        span = log.begin("rpc", track="c0/t0", t=1000.0, rpc_id=7)
        span.add_phase("wire", 1100.0, 1200.0)
        span.finish(2000.0)
        msg = log.begin("flock.msg", track="hw:c0", t=1000.0)
        msg.add_phase("doorbell_mmio", 1000.0, 1050.0)
        msg.finish(1500.0)
        return log

    def test_round_trip_validity(self, tmp_path):
        log = self._sample_log()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(log, path)
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"]["dropped_spans"] == 0
        # Only metadata and complete events; X events are self-paired.
        assert {ev["ph"] for ev in events} <= {"M", "X"}
        xs = [ev for ev in events if ev["ph"] == "X"]
        assert xs, "no span events exported"
        for ev in xs:
            assert ev["dur"] >= 0
            assert {"name", "cat", "ts", "pid", "tid"} <= set(ev)
        # Monotonic timestamps within each (pid, tid) track.
        by_track = {}
        for ev in xs:
            by_track.setdefault((ev["pid"], ev["tid"]), []).append(ev["ts"])
        for stamps in by_track.values():
            assert stamps == sorted(stamps)

    def test_names_and_units(self):
        doc = chrome_trace(self._sample_log())
        events = doc["traceEvents"]
        thread_names = {ev["args"]["name"] for ev in events
                        if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert {"c0/t0", "hw:c0"} <= thread_names
        process_names = {ev["args"]["name"] for ev in events
                         if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert "runA" in process_names
        rpc = next(ev for ev in events
                   if ev["ph"] == "X" and ev["name"] == "rpc")
        assert rpc["ts"] == pytest.approx(1.0)   # 1000 ns -> 1 us
        assert rpc["dur"] == pytest.approx(1.0)  # 1000 ns span
        assert rpc["args"]["rpc_id"] == 7

    def test_format_breakdown(self):
        log = self._sample_log()
        text = format_breakdown(log.breakdown(), title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "phase" in lines[1]
        assert any("wire" in line for line in lines)
        # Canonical order: doorbell_mmio precedes wire.
        assert (text.index("doorbell_mmio") < text.index("wire"))

    def test_format_breakdown_empty(self):
        assert "(no spans recorded)" in format_breakdown({})

    def test_format_breakdown_exact_bytes(self):
        text = format_breakdown(self._sample_log().breakdown(), title="T")
        assert text == (
            "T\n"
            "phase          count  total us  mean ns  max ns  share\n"
            "-------------  -----  --------  -------  ------  -----\n"
            "doorbell_mmio  1      0.1       50       50      33.3%\n"
            "wire           1      0.1       100      100     66.7%")
        assert format_breakdown({}) == (
            "Latency breakdown\n"
            "phase                count  total us  mean ns  max ns  share\n"
            "-------------------  -----  --------  -------  ------  -----\n"
            "(no spans recorded)" + " " * 41)


class TestTelemetry:
    def test_install_opens_run_scopes(self):
        from repro.sim import Simulator
        tel = Telemetry()
        sim1, sim2 = Simulator(), Simulator()
        tel.install(sim1, label="a")
        tel.install(sim2, label="b")
        assert sim1.instrumented and sim2.instrumented
        assert sim1.spans is tel.spans
        assert tel.runs == ["a", "b"]
        assert tel.spans.run_id == 2

    def test_ledgers_fold_once_per_simulator(self):
        """Each simulator's ledgers make one state; folding two runs'
        states sums their counters and keeps the last run's gauges."""
        from repro.sim import Simulator

        tel = Telemetry()

        def run(label, nbytes):
            sim = Simulator()
            tel.install(sim, label=label)
            servers, clients, fabric = build_cluster(
                sim, ClusterConfig(n_clients=1))
            sim.spawn(fabric.transfer(clients[0], servers[0], nbytes, 1, 1))
            sim.run()
            return ledger_state(sim)

        states = [run("a", 100)]
        first = _folded(states).snapshot()
        assert first["counters"]["net.payload_bytes"] == 100
        assert _folded(states).snapshot() == first
        states.append(run("b", 20))
        snap = _folded(states).snapshot()
        assert snap["counters"]["net.payload_bytes"] == 120
        assert snap["counters"]["net.messages"] == 2
        # Gauges are the last run's.
        assert snap["gauges"]["rnic.tx_port.occupancy{nic=client0.rnic}"] == 0

    def test_metrics_only_telemetry_records_no_spans(self, monkeypatch):
        from repro.obs.explain import attribution_blocks

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        tel = Telemetry(wants_spans=False)
        result = run_flock(MicrobenchConfig(n_clients=4), telemetry=tel)
        assert len(tel.spans) == 0
        assert attribution_blocks(tel) == {}
        snap = _folded([result.metrics]).snapshot()
        assert snap["histograms"]["flock.coalescing_degree"]["count"] > 0

    def test_untraced_run_carries_no_metrics(self, monkeypatch):
        """A run with no telemetry folds no ledgers: ``metrics`` stays
        None (the host-cost benchmark's runs take this path)."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        result = run_flock(MicrobenchConfig(n_clients=2))
        assert result.metrics is None

    def test_process_wide_current(self):
        assert current_telemetry() is None
        tel = enable(Telemetry())
        try:
            assert current_telemetry() is tel
        finally:
            disable()
        assert current_telemetry() is None


#: Runners whose traced runs put an observer callback in front of a
#: waiter's resume: a traced CQ's ``_reap_cb`` (the congested incast
#: leg) and a traced ``acquire``'s ``_note`` (FLockTX, raw reads).
UNTELEMETERED = {
    "run_flock": lambda: run_flock(
        MicrobenchConfig(n_clients=2, threads_per_client=4)),
    "run_incast_flock": lambda: run_incast_flock(
        IncastConfig(n_senders=4, threads_per_client=3), congested=True),
    "run_flocktx": lambda: run_flocktx(
        TxnBenchConfig(n_clients=2, threads_per_client=2,
                       coroutines_per_thread=3, subscribers_per_server=600)),
    "run_raw_reads": lambda: run_raw_reads(24, n_clients=3),
}


class TestTracedRuns:
    """End-to-end: the harness produces spans and metrics."""

    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.3")

    def test_flock_run_has_full_phase_coverage(self):
        tel = Telemetry()
        cfg = MicrobenchConfig(n_clients=2, threads_per_client=4,
                               outstanding=2)
        result = run_flock(cfg, telemetry=tel)
        table = tel.breakdown("rpc")
        # Every stack layer contributed to the per-RPC breakdown.
        for phase in ("client_queue", "doorbell_mmio", "wire", "propagation",
                      "nic_rx", "server_queue", "server_handler", "response"):
            assert phase in table, "missing phase %r" % phase
            assert table[phase]["total_ns"] > 0
        assert all(phase in PHASES for phase in table)
        # Span count matches traced RPCs (all finished inside the run).
        rpc_spans = [s for s in tel.spans.spans if s.name == "rpc"]
        assert len(rpc_spans) > 0
        snap = _folded([result.metrics]).snapshot()
        assert snap["counters"]["flock.client.rpcs"] >= len(rpc_spans)
        assert snap["counters"]["flock.server.requests"] > 0
        assert snap["counters"]["net.messages"] > 0
        assert snap["histograms"]["flock.coalescing_degree"]["count"] > 0

    @pytest.mark.parametrize("runner", sorted(UNTELEMETERED))
    def test_untelemetered_run_matches_default(self, runner):
        run = UNTELEMETERED[runner]
        base = run()
        enable(Telemetry())
        try:
            traced = run()
        finally:
            disable()
        # Observability must not perturb virtual time: identical results
        # from the same dispatches.
        assert traced.ops == base.ops
        assert traced.latency == base.latency
        assert traced.host["events"] == base.host["events"]
        assert traced.extras == base.extras

    def test_fig2a_breakdown_shows_qp_cache_cliff(self):
        """Acceptance: the traced Fig. 2a sweep attributes the throughput
        collapse past the QP-cache size to RNIC cache misses / PCIe
        stalls, visible as a growing pcie_stall share."""
        cluster = ClusterConfig(nic=NicConfig(qp_cache_entries=32))
        shares, misses = {}, {}
        for qps in (16, 256):
            tel = Telemetry()
            result = run_raw_reads(qps, n_clients=8, cluster=cluster,
                                   telemetry=tel)
            shares[qps] = tel.breakdown()["pcie_stall"]["share"]
            misses[qps] = result.extras["qp_cache_miss"]
        assert misses[16] < 0.05 < misses[256]
        assert shares[16] < 0.05, "no stalls expected while QPs fit cache"
        assert shares[256] > 5 * max(shares[16], 1e-9)
        assert shares[256] > 0.10, (
            "past the cliff PCIe stalls must dominate: %r" % shares)
