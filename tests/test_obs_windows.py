"""Windowed SLO timelines: unit behaviour and runner integration.

The unit half drives a :class:`SloTimeline` by hand — window routing,
counter-source delta attribution, report shape.  The integration half runs a tiny FLock microbench and asserts
the timeline rides on :class:`RunResult` without perturbing the run
(attaching a timeline schedules no events and draws no randomness, so
two identical runs report identical timelines).
"""

import json

import pytest

from repro.harness import MicrobenchConfig, run_flock
from repro.obs.windows import (
    DEFAULT_WINDOWS,
    SloTimeline,
    attach_switch_sources,
)

SMOKE = "0.05"


class TestWindowRouting:
    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            SloTimeline(100.0, 100.0)

    def test_window_width(self):
        tl = SloTimeline(0.0, 800.0, n_windows=8)
        assert tl.window_ns == 100.0
        assert len(tl.report()["windows"]) == 8

    def test_ops_land_in_their_windows(self):
        tl = SloTimeline(0.0, 400.0, n_windows=4)
        tl.observe(10.0, 1_000.0)       # window 0
        tl.observe(150.0, 2_000.0)      # window 1
        tl.observe(199.0, 2_000.0)      # window 1
        tl.observe(399.9, 8_000.0)      # window 3
        rows = tl.report()["windows"]
        assert [r["ops"] for r in rows] == [1, 2, 0, 1]
        assert rows[0]["p50_us"] == pytest.approx(1.0, rel=0.02)
        assert rows[1]["p99_us"] == pytest.approx(2.0, rel=0.02)
        assert rows[2]["p50_us"] is None
        assert rows[3]["p999_us"] == pytest.approx(8.0, rel=0.02)

    def test_out_of_range_observations_ignored(self):
        tl = SloTimeline(100.0, 200.0, n_windows=2)
        tl.observe(99.9, 1_000.0)    # before t0
        tl.observe(200.0, 1_000.0)   # at t1 (half-open interval)
        tl.observe(500.0, 1_000.0)   # way past
        assert all(r["ops"] == 0 for r in tl.report()["windows"])

    def test_goodput_is_ops_over_window(self):
        tl = SloTimeline(0.0, 2_000.0, n_windows=2)
        for _ in range(10):
            tl.observe(10.0, 1_000.0)
        row = tl.report()["windows"][0]
        # 10 ops in a 1000 ns window = 1e7 ops/s = 10 Mops.
        assert row["goodput_mops"] == pytest.approx(10.0)

    def test_observe_after_finish_ignored(self):
        tl = SloTimeline(0.0, 100.0, n_windows=1)
        tl.finish()
        tl.observe(50.0, 1_000.0)
        assert tl.report()["windows"][0]["ops"] == 0

    def test_report_is_json_serializable(self):
        tl = SloTimeline(0.0, 100.0, n_windows=2)
        tl.observe(10.0, 1_000.0)
        parsed = json.loads(json.dumps(tl.report()))
        assert parsed["t0_ns"] == 0.0
        assert parsed["windows"][0]["ops"] == 1


class TestCounterSources:
    def test_deltas_attributed_at_rollover(self):
        box = {"v": 100.0}
        tl = SloTimeline(0.0, 300.0, n_windows=3)
        tl.add_source("marks", lambda: box["v"])   # baseline = 100
        tl.observe(10.0, 1_000.0)                  # window 0
        box["v"] = 130.0
        tl.observe(110.0, 1_000.0)                 # rollover -> window 0
        box["v"] = 135.0
        tl.observe(250.0, 1_000.0)                 # rollover -> window 1
        box["v"] = 136.0
        rows = tl.report()["windows"]              # finish -> window 2
        assert rows[0]["counters"] == {"marks": 30.0}
        assert rows[1]["counters"] == {"marks": 5.0}
        assert rows[2]["counters"] == {"marks": 1.0}

    def test_silent_windows_delta_lands_in_last_closed(self):
        box = {"v": 0.0}
        tl = SloTimeline(0.0, 400.0, n_windows=4)
        tl.add_source("drops", lambda: box["v"])
        tl.observe(10.0, 1_000.0)     # window 0
        box["v"] = 7.0
        tl.observe(390.0, 1_000.0)    # jumps to window 3
        rows = tl.report()["windows"]
        assert rows[2]["counters"] == {"drops": 7.0}

    def test_finish_is_idempotent(self):
        box = {"v": 0.0}
        tl = SloTimeline(0.0, 100.0, n_windows=1)
        tl.add_source("c", lambda: box["v"])
        box["v"] = 4.0
        tl.finish()
        box["v"] = 9.0
        tl.finish()
        assert tl.report()["windows"][0]["counters"] == {"c": 4.0}

    def test_switch_sources_noop_without_switch(self):
        class Fabric:
            switch = None
        tl = attach_switch_sources(SloTimeline(0.0, 1.0), Fabric())
        assert tl._sources == {}

    def test_switch_sources_wired(self):
        class Switch:
            total_ecn_marks = 3
            total_pause_events = 1
            total_drops = 2

        class Fabric:
            switch = Switch()
        tl = attach_switch_sources(SloTimeline(0.0, 1.0), Fabric())
        assert sorted(tl._sources) == \
            ["ecn_marks", "pfc_pauses", "switch_drops"]


class TestReportShape:
    def test_unarmed_report_has_no_thresholds_block(self):
        report = SloTimeline(0.0, 1.0, n_windows=1).report()
        assert "thresholds" not in report
        assert report["violations"] == []

    def test_default_window_count(self):
        assert SloTimeline(0.0, 1.0).n_windows == DEFAULT_WINDOWS


class TestRunnerIntegration:
    @pytest.fixture(autouse=True)
    def _smoke(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)

    def _run(self):
        return run_flock(MicrobenchConfig(n_clients=2, threads_per_client=2,
                                          outstanding=1))

    def test_result_carries_slo_report(self):
        result = self._run()
        assert result.slo is not None
        rows = result.slo["windows"]
        assert len(rows) == DEFAULT_WINDOWS
        assert sum(r["ops"] for r in rows) == result.ops
        json.dumps(result.slo)  # plain data, survives pickling too

    def test_attaching_timeline_is_passive(self):
        """Two identical runs, identical timelines — observing cannot
        perturb the simulation."""
        a, b = self._run(), self._run()
        assert json.dumps(a.slo, sort_keys=True) == \
            json.dumps(b.slo, sort_keys=True)
        assert a.ops == b.ops
        assert a.duration_ns == b.duration_ns
