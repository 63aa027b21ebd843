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
from repro.obs import (
    PHASES,
    NullRegistry,
    NullSpanLog,
    Registry,
    Span,
    SpanLog,
    Telemetry,
    chrome_trace,
    current_telemetry,
    disable,
    enable,
    format_breakdown,
    null_registry,
    null_span_log,
    write_chrome_trace,
)


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
        assert span.phase_total("client_queue") == 50.0
        assert span.phase_total("wire") == 20.0

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
        assert span.phase_total("server_handler") == 7.0

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
        assert span.phase_total("pcie_stall") == 30.0
        assert span.phase_total("nic_tx") == 100.0

    def test_adopt_copies_phases(self):
        log = SpanLog()
        msg = log.begin("flock.msg", track="hw", t=0.0)
        msg.add_phase("doorbell_mmio", 0.0, 5.0)
        msg.add_phase("wire", 5.0, 15.0)
        rpc = log.begin("rpc", track="t0", t=0.0)
        rpc.adopt(msg)
        assert rpc.phase_total("doorbell_mmio") == 5.0
        assert rpc.phase_total("wire") == 10.0
        rpc2 = log.begin("rpc", track="t1", t=0.0)
        rpc2.adopt(msg, phases=["wire"])
        assert rpc2.phase_total("doorbell_mmio") == 0.0
        assert rpc2.phase_total("wire") == 10.0

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
        assert log.phase_share("wire") == pytest.approx(0.25)

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
        c = reg.counter("rnic.qp_cache.hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_memoized_by_name_and_labels(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", nic=1) is reg.counter("x", nic=1)
        assert reg.counter("x", nic=1) is not reg.counter("x", nic=2)

    def test_gauge(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(7)
        assert g.value == 7
        backing = [3]
        fg = reg.gauge("live", fn=lambda: backing[0])
        backing[0] = 11
        assert fg.value == 11

    def test_histogram(self):
        reg = Registry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert h.percentile(100) == 4.0

    def test_snapshot_and_exports(self):
        reg = Registry()
        reg.counter("a", nic=0).inc(2)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(9.0)
        snap = reg.snapshot()
        assert snap["counters"]["a{nic=0}"] == 2
        assert snap["gauges"]["b"] == 1.5
        assert snap["histograms"]["c"]["count"] == 1
        doc = json.loads(reg.to_json())
        assert doc["counters"]["a{nic=0}"] == 2
        csv_text = reg.to_csv()
        assert csv_text.startswith("type,name,field,value\n")
        assert "counter,a{nic=0},value,2" in csv_text


class TestDisabledMode:
    def test_null_registry_instruments_are_shared_noops(self):
        assert not null_registry.enabled
        c1 = null_registry.counter("anything", lab=1)
        c2 = null_registry.counter("other")
        assert c1 is c2  # one shared singleton, no per-name allocation
        c1.inc()
        c1.inc(100)
        assert c1.value == 0
        g = null_registry.gauge("g", fn=lambda: 1 / 0)  # fn never called
        g.set(5)
        assert g.value == 0
        h = null_registry.histogram("h")
        h.observe(3.0)
        assert h.summary()["count"] == 0
        assert null_registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_null_span_log(self):
        assert not null_span_log.enabled
        assert null_span_log.begin("s", track="x", t=0.0) is None
        assert len(null_span_log) == 0
        assert null_span_log.breakdown() == {}
        assert null_span_log.phase_share("wire") == 0.0

    def test_fresh_simulator_defaults_to_null(self):
        from repro.sim import Simulator
        sim = Simulator()
        assert isinstance(sim.metrics, NullRegistry)
        assert isinstance(sim.spans, NullSpanLog)


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


class TestTelemetry:
    def test_install_opens_run_scopes(self):
        from repro.sim import Simulator
        tel = Telemetry()
        sim1, sim2 = Simulator(), Simulator()
        tel.install(sim1, label="a")
        tel.install(sim2, label="b")
        assert sim1.metrics is tel.registry
        assert sim1.spans is tel.spans
        assert tel.runs == ["a", "b"]
        assert tel.spans.run_id == 2

    def test_process_wide_current(self):
        assert current_telemetry() is None
        tel = enable(Telemetry())
        try:
            assert current_telemetry() is tel
        finally:
            disable()
        assert current_telemetry() is None


class TestTracedRuns:
    """End-to-end: the harness produces spans and metrics."""

    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.3")

    def test_flock_run_has_full_phase_coverage(self):
        tel = Telemetry()
        cfg = MicrobenchConfig(n_clients=2, threads_per_client=4,
                               outstanding=2)
        run_flock(cfg, telemetry=tel)
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
        snap = tel.metrics_snapshot()
        assert snap["counters"]["flock.client.rpcs"] >= len(rpc_spans)
        assert snap["counters"]["flock.server.requests"] > 0
        assert snap["counters"]["net.messages"] > 0
        assert snap["histograms"]["flock.coalescing_degree"]["count"] > 0

    def test_untelemetered_run_matches_default(self):
        cfg = MicrobenchConfig(n_clients=2, threads_per_client=4)
        base = run_flock(cfg)
        traced = run_flock(cfg, telemetry=Telemetry())
        # Observability must not perturb virtual time: identical results.
        assert traced.ops == base.ops
        assert traced.latency == base.latency
        assert traced.host["events"] == base.host["events"]
        assert traced.extras["mean_coalescing_degree"] == \
            base.extras["mean_coalescing_degree"]

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
            shares[qps] = tel.spans.phase_share("pcie_stall")
            misses[qps] = result.extras["qp_cache_miss"]
        assert misses[16] < 0.05 < misses[256]
        assert shares[16] < 0.05, "no stalls expected while QPs fit cache"
        assert shares[256] > 5 * max(shares[16], 1e-9)
        assert shares[256] > 0.10, (
            "past the cliff PCIe stalls must dominate: %r" % shares)
