"""Causal wait capture, critical paths, attribution, what-if.

Covers the wait producers (generic resource acquisition, PCIe
cache-miss fetches, credit accounting, the scheduler hold ledger),
the span-level satellites (double-open, null-log immutability, adopt
donors), the critical-path walker on hand-built spans, the attribution/folded-stack/what-if math, end-of-run
live-span flushing, and the Fig. 2a acceptance scenario: attribution
pins the post-cliff collapse on ``pcie_stall`` and the what-if bound
tracks the measured recovery when the QP cache is sized to fit.
"""

import json

import pytest

from repro.config import ClusterConfig, NicConfig
from repro.flock.qp_scheduler import HoldLedger
from repro.harness.microbench import run_raw_reads
from repro.hw.pcie import PcieLink
from repro.obs.causal import (
    GAP_RESOURCE,
    attribute,
    attribution_report,
    critical_path,
    critical_paths,
    folded_stacks,
    format_attribution,
    what_if,
    what_if_all,
)
from repro.obs.span import PHASES, NullSpanLog, SpanLog
from repro.obs.telemetry import Telemetry
from repro.sim import Resource, Simulator


def _span(log, t0, t1, edges=(), name="rpc"):
    """A finished span with the given wait intervals."""
    span = log.begin(name, track="t", t=t0)
    for resource, e0, e1 in edges:
        span.add_phase(resource, e0, e1)
    span.finish(t1)
    return span


# ---------------------------------------------------------------------------
# Wait producers
# ---------------------------------------------------------------------------

class TestEdgeProducers:
    def test_contended_resource_records_edge(self, sim):
        res = Resource(sim, capacity=1, name="widget")
        log = SpanLog()
        span = log.begin("job", track="t", t=0.0)

        def holder():
            yield res.acquire()
            yield sim.timeout(50)
            res.release()

        def waiter():
            yield sim.timeout(10)
            yield res.acquire(span)
            res.release()
            span.finish(sim.now)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert span.phases == [("widget", 10.0, 50.0)]
        assert res.contended == 1

    def test_uncontended_acquire_leaves_no_edge(self, sim):
        res = Resource(sim, capacity=2, name="widget")
        log = SpanLog()
        span = log.begin("job", track="t", t=0.0)
        ev = res.acquire(span)
        assert ev.triggered
        span.finish(5.0)
        assert span.phases == []
        assert res.contended == 0

    def test_pcie_read_records_stall_edge(self, sim):
        link = PcieLink(sim, read_latency_ns=100.0, slots=1)
        log = SpanLog()
        spans = [log.begin("op%d" % i, track="t", t=0.0) for i in range(2)]

        def fetch(span):
            yield from link.read(span)
            span.finish(sim.now)

        for span in spans:
            sim.spawn(fetch(span))
        sim.run()
        # First read: pure latency; second also queues behind the slot.
        assert spans[0].phases == [("pcie_stall", 0.0, 100.0)]
        assert spans[1].phases == [("pcie_stall", 0.0, 200.0)]

    def test_stuck_pcie_read_survives_flush(self, sim):
        link = PcieLink(sim, read_latency_ns=100.0, slots=1)
        log = SpanLog()
        spans = [log.begin("op%d" % i, track="t", t=0.0) for i in range(3)]

        def fetch(span):
            yield from link.read(span)
            span.finish(sim.now)

        for span in spans:
            sim.spawn(fetch(span))
        sim.run(until=150.0)  # second read mid-flight, third still queued
        assert len(log) == 1
        flushed = log.flush(sim.now)
        assert flushed == 2 and log.flush(sim.now) == 0
        stuck = [s for s in log.spans if s.args.get("truncated")]
        assert {tuple(s.phases[0]) for s in stuck} == {
            ("pcie_stall", 0.0, 150.0)}

    def test_hold_ledger_windows(self):
        ledger = HoldLedger()
        assert ledger.release("qp3", 10.0) == 0.0
        ledger.hold("qp3", 100.0)
        ledger.hold("qp3", 200.0)  # keeps the original timestamp
        assert ledger.held_since("qp3") == 100.0
        assert ledger.release("qp3", 400.0) == 300.0
        assert ledger.holds == 1
        assert ledger.total_hold_ns == 300.0
        assert ledger.held_since("qp3") is None


# ---------------------------------------------------------------------------
# Span satellites
# ---------------------------------------------------------------------------

class TestSpanSatellites:
    def test_double_open_keeps_prior_interval(self):
        log = SpanLog()
        span = log.begin("rpc", track="t", t=0.0)
        span.open("pcie_stall", 10.0)
        span.open("pcie_stall", 30.0)  # re-open: prior interval kept
        span.close("pcie_stall", 45.0)
        span.finish(50.0)
        assert ("pcie_stall", 10.0, 30.0) in span.phases
        assert ("pcie_stall", 30.0, 45.0) in span.phases
        assert sum(t1 - t0 for _, t0, t1 in span.phases) == 35.0

    def test_null_span_log_is_immutable(self):
        null = NullSpanLog()
        assert null.spans == ()
        with pytest.raises(AttributeError):
            null.spans.append(object())
        assert null.flush(100.0) == 0
        assert null.breakdown() == {}

    def test_adopt_donor_drops_out_of_critical_paths(self):
        log = SpanLog()
        hw = log.begin("msg", track="hw", t=0.0)
        hw.add_phase("wire", 0.0, 10.0)
        rpc = log.begin("rpc", track="c", t=0.0)
        rpc.adopt(hw)
        assert hw.donor
        hw.finish(10.0)
        rpc.finish(12.0)
        assert log.breakdown()["wire"]["total_ns"] == 20.0  # on both
        # Donor spans never root a critical path of their own.
        assert [p.span.name for p in critical_paths(log)] == ["rpc"]


# ---------------------------------------------------------------------------
# Critical-path extraction
# ---------------------------------------------------------------------------

class TestCriticalPath:
    def test_unfinished_span_rejected(self):
        log = SpanLog()
        span = log.begin("rpc", track="t", t=0.0)
        with pytest.raises(ValueError):
            critical_path(span)

    def test_segments_tile_span_exactly(self):
        log = SpanLog()
        span = _span(log, 0.0, 100.0,
                     edges=[("pcie_stall", 10.0, 30.0),
                            ("wire", 60.0, 80.0)])
        path = critical_path(span)
        assert path.segments[0].t0 == span.t0
        assert path.segments[-1].t1 == span.t1
        for prev, cur in zip(path.segments, path.segments[1:]):
            assert prev.t1 == cur.t0
        assert sum(s.duration for s in path.segments) == span.duration
        assert [s.resource for s in path.segments] == [
            GAP_RESOURCE, "pcie_stall", GAP_RESOURCE, "wire", GAP_RESOURCE]

    def test_overlapping_edges_pick_longest_chain(self):
        log = SpanLog()
        span = _span(log, 0.0, 100.0,
                     edges=[("propagation", 0.0, 85.0),
                            ("wire", 80.0, 100.0)])
        path = critical_path(span)
        assert [(s.resource, s.t0, s.t1) for s in path.segments] == [
            ("propagation", 0.0, 80.0), ("wire", 80.0, 100.0)]

    def test_equal_reach_ties_break_by_stack_order(self):
        log = SpanLog()
        span = _span(log, 0.0, 50.0,
                     edges=[("wire", 0.0, 50.0),
                            ("credit_wait", 0.0, 50.0)])
        path = critical_path(span)
        assert PHASES.index("credit_wait") < PHASES.index("wire")
        assert [s.resource for s in path.segments] == ["credit_wait"]

    def test_spent_intervals_are_not_waits(self):
        log = SpanLog()
        span = _span(log, 0.0, 50.0,
                     edges=[("nic_tx", 0.0, 50.0),
                            ("pcie_stall", 10.0, 20.0)])
        path = critical_path(span)
        assert [s.resource for s in path.segments] == [
            GAP_RESOURCE, "pcie_stall", GAP_RESOURCE]

    def test_edges_clamped_and_out_of_range_dropped(self):
        log = SpanLog()
        span = _span(log, 10.0, 50.0,
                     edges=[("wire", 0.0, 20.0),       # clamps to 10..20
                            ("cq_poll", 60.0, 90.0)])  # outside: dropped
        path = critical_path(span)
        assert [(s.resource, s.t0, s.t1) for s in path.segments] == [
            ("wire", 10.0, 20.0), (GAP_RESOURCE, 20.0, 50.0)]

    def test_critical_paths_filters(self):
        log = SpanLog()
        _span(log, 0.0, 10.0, name="rpc")
        _span(log, 0.0, 10.0, name="msg")
        assert len(critical_paths(log)) == 2
        assert len(critical_paths(log, name="rpc")) == 1
        run1 = log.spans[0].pid
        assert len(critical_paths(log, run=run1)) == 2
        assert critical_paths(log, run=run1 + 1) == []


# ---------------------------------------------------------------------------
# Attribution, folded stacks, what-if
# ---------------------------------------------------------------------------

class TestAttribution:
    def _paths(self):
        log = SpanLog()
        a = _span(log, 0.0, 100.0, edges=[("pcie_stall", 0.0, 40.0)])
        b = _span(log, 0.0, 100.0, edges=[("pcie_stall", 0.0, 100.0)])
        return [critical_path(a), critical_path(b)]

    def test_shares_sum_to_one(self):
        table = attribute(self._paths())
        assert sum(cell["share"] for cell in table.values()) \
            == pytest.approx(1.0, abs=1e-12)
        assert table["pcie_stall"]["total_ns"] == 140.0
        assert table["pcie_stall"]["count"] == 2
        assert table[GAP_RESOURCE]["total_ns"] == 60.0
        # Ordered by descending contribution.
        assert list(table) == ["pcie_stall", GAP_RESOURCE]

    def test_p99_interpolates_segment_durations(self):
        table = attribute(self._paths())
        # Two pcie segments of 40 and 100 ns: p99 = 40 + 0.99 * 60.
        assert table["pcie_stall"]["p99_ns"] == pytest.approx(99.4)

    def test_folded_stacks_exact_bytes(self):
        text = folded_stacks(self._paths())
        assert text == ("rpc;cpu 60\n"
                        "rpc;pcie_stall 140\n")
        assert folded_stacks([]) == ""

    def test_format_attribution_exact_bytes(self):
        paths = self._paths()
        assert format_attribution(attribute(paths)) == (
            "Critical-path attribution\n"
            "resource    count  total us  share  p99 ns\n"
            "----------  -----  --------  -----  ------\n"
            "pcie_stall  2      0.1       70.0%  99    \n"
            "cpu         1      0.1       30.0%  60    ")
        assert format_attribution(attribute(paths), what_if_all(paths),
                                  title="T") == (
            "T\n"
            "resource    count  total us  share  p99 ns  what-if x\n"
            "----------  -----  --------  -----  ------  ---------\n"
            "pcie_stall  2      0.1       70.0%  99      3.33     \n"
            "cpu         1      0.1       30.0%  60      1.43     ")
        assert format_attribution({}) == (
            "Critical-path attribution\n"
            "resource  count  total us  share  p99 ns\n"
            "--------  -----  --------  -----  ------")

    def test_what_if_math(self):
        paths = self._paths()
        report = what_if(paths, "pcie_stall")
        assert report["total_ns"] == 200.0
        assert report["resource_ns"] == 140.0
        assert report["speedup_bound"] == pytest.approx(200.0 / 60.0)
        assert what_if(paths, "wire")["speedup_bound"] == 1.0
        assert what_if([], "pcie_stall")["speedup_bound"] == 1.0

    def test_what_if_unbounded_when_fully_blocked(self):
        log = SpanLog()
        span = _span(log, 0.0, 50.0, edges=[("wire", 0.0, 50.0)])
        bound = what_if([critical_path(span)], "wire")["speedup_bound"]
        assert bound == float("inf")

    def test_report_bundles_everything(self):
        rep = attribution_report(self._paths())
        assert rep["paths"] == 2
        assert rep["critical_path_ns"] == 200.0
        assert set(rep["what_if"]) == set(rep["attribution"])


# ---------------------------------------------------------------------------
# Live-span flushing
# ---------------------------------------------------------------------------

class TestFlush:
    def test_flush_closes_open_waits(self):
        log = SpanLog()
        span = log.begin("rpc", track="t", t=0.0)
        span.open("pcie_stall", 5.0)
        assert log.flush(40.0) == 1
        assert span.t1 == 40.0
        assert span.args["truncated"] is True
        assert span.phases == [("pcie_stall", 5.0, 40.0)]

    def test_telemetry_flushes_before_analysis(self):
        tel = Telemetry()
        sim = Simulator()
        tel.install(sim, label="demo")
        span = sim.spans.begin("rpc", track="t", t=0.0)
        span.add_phase("wire", 0.0, 0.0)  # zero-length: no path time
        span.open("credit_wait", 0.0)

        def advance():
            yield sim.timeout(30.0)

        sim.spawn(advance())
        sim.run()
        paths = tel.critical_paths()
        assert len(paths) == 1
        assert paths[0].span.args.get("truncated") is True
        assert paths[0].resource_ns("credit_wait") == 30.0

    def test_install_flushes_previous_run(self):
        tel = Telemetry()
        sim1 = Simulator()
        tel.install(sim1, label="one")
        stale = sim1.spans.begin("rpc", track="t", t=0.0)

        def advance(sim):
            yield sim.timeout(20.0)

        sim1.spawn(advance(sim1))
        sim1.run()
        sim2 = Simulator()
        tel.install(sim2, label="two")
        # The stale span was flushed at sim1's final clock, into run 1.
        assert stale.t1 == 20.0
        run_one = [rid for rid, label in tel.spans.run_labels.items()
                   if label == "one"][0]
        assert [p.span for p in tel.critical_paths(run=run_one)] == [stale]


# ---------------------------------------------------------------------------
# Fig. 2a acceptance: attribution explains the cliff
# ---------------------------------------------------------------------------

def _attribution_for(qps, **kwargs):
    tel = Telemetry()
    result = run_raw_reads(qps, telemetry=tel, **kwargs)
    return result, tel


class TestFig2aAcceptance:
    def test_pcie_share_crosses_the_cliff(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
        _, pre_tel = _attribution_for(176)
        pre = pre_tel.attribution(name="wr.read")
        assert pre.get("pcie_stall", {"share": 0.0})["share"] < 0.05

        _, post_tel = _attribution_for(1100)
        post = post_tel.attribution(name="wr.read")
        pcie_share = post["pcie_stall"]["share"]
        assert pcie_share > 0.35
        assert pcie_share == max(cell["share"] for cell in post.values())
        for table in (pre, post):
            assert sum(cell["share"] for cell in table.values()) \
                == pytest.approx(1.0, abs=1e-6)

    def test_what_if_tracks_fitted_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
        base, tel = _attribution_for(2200)
        bound = tel.what_if(name="wr.read")["pcie_stall"]
        big_cache = ClusterConfig(nic=NicConfig(qp_cache_entries=4096))
        fitted = run_raw_reads(2200, cluster=big_cache)
        actual = fitted.mops / base.mops
        assert actual > 1.5  # sizing the cache really removes the cliff
        assert abs(bound - actual) / actual <= 0.25

    def test_attribution_is_deterministic(self, monkeypatch):
        # Determinism does not depend on scale: the shortest window will do.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        outputs = []
        for _ in range(2):
            _, tel = _attribution_for(176)
            paths = tel.critical_paths(name="wr.read")
            outputs.append((folded_stacks(paths),
                            json.dumps(attribution_report(paths),
                                       sort_keys=True)))
        assert outputs[0] == outputs[1]
