"""Cost observatory: event census, host profiler, occupancy timelines.

Covers the three instruments end to end on tiny simulations plus the
PR's structural guarantees: callback classification and census
windowing in :class:`SimProfile`, level/busy/sample integration in
:class:`OccupancyTracker`, virtual-time identity of ``run_profiled``
versus ``run``, and — the gating audit — that every component occupancy
hook hides behind a cached ``self._occ`` None test while the PR-5 fast
path (``Simulator.run``) carries zero observatory code.
"""

import inspect
import json
import os
import pathlib
import re

import pytest

from repro.harness import MicrobenchConfig, run_flock
from repro.obs.occupancy import OCCUPANCY_ENV, OccupancyTracker, occupancy_enabled
from repro.obs.simprof import (
    PROFILE_ENV,
    SimProfile,
    component_bucket,
    profile_enabled,
)
from repro.obs.windows import SloTimeline
from repro.sim.core import Simulator

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


# -- workload helpers (defined here, so their bucket is ``app``) ---------

def _ticker(sim, period, count):
    for _ in range(count):
        yield sim.timeout(period)


def _noop(_event):
    pass


class TestComponentBucket:
    CASES = [
        ("/x/src/repro/net/fabric.py", "fabric"),
        ("/x/src/repro/net/transport.py", "fabric"),
        ("/x/src/repro/net/congestion/switch.py", "switch"),
        ("/x/src/repro/hw/rnic.py", "rnic"),
        ("/x/src/repro/hw/pcie.py", "pcie"),
        ("/x/src/repro/verbs/cq.py", "cq"),
        ("/x/src/repro/verbs/qp.py", "verbs"),
        ("/x/src/repro/flock/credits.py", "credits"),
        ("/x/src/repro/flock/rpc.py", "flock"),
        ("/x/src/repro/sim/core.py", "kernel"),
        ("/x/src/repro/harness/microbench.py", "app"),
        ("/tmp/tests/test_something.py", "app"),
    ]

    @pytest.mark.parametrize("path,want", CASES)
    def test_mapping(self, path, want):
        assert component_bucket(path) == want

    def test_windows_separators(self):
        assert component_bucket(r"C:\x\repro\net\fabric.py") == "fabric"

    def test_every_real_module_lands_in_a_named_bucket(self):
        for path in SRC.rglob("*.py"):
            assert component_bucket(str(path)) != "other"


class TestEnvSwitches:
    def test_profile_default_off(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profile_enabled()
        assert profile_enabled(default=True)

    @pytest.mark.parametrize("raw,want", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("off", False), ("", False),
    ])
    def test_profile_env_values(self, monkeypatch, raw, want):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profile_enabled() is want

    def test_occupancy_zero_disables_even_with_default_true(self, monkeypatch):
        monkeypatch.setenv(OCCUPANCY_ENV, "0")
        assert not occupancy_enabled(default=True)


class TestSimProfile:
    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            SimProfile(5.0, 5.0)

    def _profiled_run(self, until=320.0):
        sim = Simulator()
        sim.spawn(_ticker(sim, 10.0, 30))
        sim.timeout(5.0).add_callback(_noop)      # -> app;timer
        ev = sim.event()
        ev.add_callback(_noop)                    # -> app;callback
        ev.succeed(delay=7.0)
        prof = SimProfile(100.0, 200.0, n_windows=4)
        sim.run_profiled(prof, until=until)
        return sim, prof

    def test_classification_and_shares(self):
        sim, prof = self._profiled_run()
        assert "app;process" in prof.dispatched
        assert "app;callback" in prof.dispatched
        assert "app;timer" in prof.dispatched
        assert prof.total_dispatched == sim.events_processed
        report = prof.report()
        shares = [b["share"] for b in report["host"]["buckets"]]
        assert abs(sum(shares) - 1.0) < 1e-6
        assert report["host"]["total_ns"] > 0

    def test_census_covers_measure_span_only(self):
        _sim, prof = self._profiled_run()
        report = prof.report()
        census = report["census"]
        # ticker resumes at 100..190 inside [100, 200): 10 events.
        windowed = sum(w["events"] for w in census["windows"])
        assert windowed == 10
        assert len(census["windows"]) == 4
        for w in census["windows"]:
            assert w["t1_ns"] - w["t0_ns"] == pytest.approx(25.0)
        # phases partition the dispatch count.
        phases = report["phases"]
        assert phases["measure"]["events"] == 10
        total = sum(p["events"] for p in phases.values())
        assert total == prof.total_dispatched

    def test_bare_timeout_is_a_timer(self):
        sim = Simulator()
        sim.timeout(1.0)
        prof = SimProfile(0.0, 10.0, n_windows=2)
        sim.run_profiled(prof, until=10.0)
        assert prof.dispatched.get("timers;timer") == 1

    def test_leftovers_counted_cancelled_and_finish_idempotent(self):
        sim = Simulator()
        sim.spawn(_ticker(sim, 10.0, 10))
        prof = SimProfile(0.0, 25.0, n_windows=2)
        sim.run_profiled(prof, until=25.0)
        prof.finish(sim)
        cancelled = dict(prof.cancelled)
        assert sum(cancelled.values()) >= 1
        prof.finish(sim)  # idempotent: no double count
        assert prof.cancelled == cancelled
        report = prof.report()
        assert report["census"]["scheduled"] == \
            report["census"]["dispatched"] + report["census"]["cancelled"]

    def test_dominant_component(self):
        _sim, prof = self._profiled_run()
        comp, share = prof.dominant_component()
        assert comp == "app"
        assert 0.0 < share <= 1.0

    def test_folded_export_format(self):
        _sim, prof = self._profiled_run()
        lines = prof.folded().splitlines()
        assert lines
        for line in lines:
            stack, _sep, weight = line.rpartition(" ")
            assert stack.startswith("sim;")
            assert len(stack.split(";")) == 3
            assert int(weight) >= 0

    def test_report_is_json_serializable(self):
        _sim, prof = self._profiled_run()
        blob = json.dumps(prof.report(), sort_keys=True)
        assert "dominant_component" in blob


class TestRunProfiledIdentity:
    """``run_profiled`` must replay ``run``'s event order exactly."""

    @staticmethod
    def _workload(sim, log):
        def cb(event):
            log.append(("cb", sim.now, event.value))
        for i, delay in enumerate((3.0, 1.0, 1.0, 7.0)):
            sim.timeout(delay, value=i).add_callback(cb)

        def proc(sim):
            for _ in range(5):
                yield sim.timeout(2.0)
                log.append(("proc", sim.now))
        sim.spawn(proc(sim))

    def _trace(self, profiled):
        sim = Simulator()
        log = []
        self._workload(sim, log)
        if profiled:
            sim.run_profiled(SimProfile(0.0, 20.0), until=20.0)
        else:
            sim.run(until=20.0)
        return log, sim.now, sim.events_processed

    def test_same_virtual_trace(self):
        assert self._trace(False) == self._trace(True)

    def test_until_none_drains(self):
        sim = Simulator()
        log = []
        self._workload(sim, log)
        sim.run_profiled(SimProfile(0.0, 20.0))
        ref = Simulator()
        ref_log = []
        self._workload(ref, ref_log)
        ref.run()
        assert log == ref_log
        assert sim.now == ref.now

    def test_past_until_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(Exception):
            sim.run_profiled(SimProfile(0.0, 1.0), until=1.0)


class TestOccupancyTracker:
    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            OccupancyTracker(10.0, 10.0)

    def test_level_integration_is_exact(self):
        occ = OccupancyTracker(0.0, 100.0, n_windows=4)
        occ.add("x", 0.0, 2.0, capacity=4.0)
        occ.add("x", 50.0, -1.0)
        occ.finish(100.0)
        [row] = occ.report()["series"]
        assert row["name"] == "x" and row["kind"] == "level"
        assert row["mean"] == [2.0, 2.0, 1.0, 1.0]
        # the drop lands exactly on the window-2 boundary, so level 2
        # never overlaps window 2 and its peak is the new level.
        assert row["peak"] == [2.0, 2.0, 1.0, 1.0]
        assert row["busy_frac"] == [0.5, 0.5, 0.25, 0.25]

    def test_set_level(self):
        occ = OccupancyTracker(0.0, 40.0, n_windows=2)
        occ.set_level("qps", 0.0, 3.0, capacity=6.0)
        occ.set_level("qps", 20.0, 6.0)
        occ.finish(40.0)
        [row] = occ.report()["series"]
        assert row["mean"] == [3.0, 6.0]
        assert row["busy_frac"] == [0.5, 1.0]

    def test_busy_intervals_clip_to_span(self):
        occ = OccupancyTracker(0.0, 100.0, n_windows=4)
        occ.busy("port", 10.0, 30.0)
        occ.busy("port", -20.0, 10.0)   # clipped to [0, 10)
        occ.busy("port", 95.0, 140.0)   # clipped to [95, 100)
        occ.busy("port", 60.0, 60.0)    # empty: ignored
        occ.finish(100.0)
        [row] = occ.report()["series"]
        assert row["kind"] == "busy" and row["capacity"] == 1.0
        assert row["busy_frac"] == [1.0, 0.2, 0.0, 0.2]

    def test_samples_and_empty_window_means(self):
        occ = OccupancyTracker(0.0, 40.0, n_windows=2)
        occ.sample("depth", 5.0, 4.0)
        occ.sample("depth", 6.0, 8.0)
        occ.sample("depth", 45.0, 99.0)  # outside span: dropped
        occ.finish(40.0)
        [row] = occ.report()["series"]
        assert row["kind"] == "sample"
        assert row["mean"] == [6.0, None]
        assert row["peak"] == [8.0, 0.0]

    def test_finish_is_idempotent(self):
        occ = OccupancyTracker(0.0, 10.0, n_windows=1)
        occ.add("x", 0.0, 1.0)
        occ.finish(10.0)
        occ.finish(10.0)
        [row] = occ.report()["series"]
        assert row["mean"] == [1.0]

    def test_report_is_json_serializable(self):
        occ = OccupancyTracker(0.0, 10.0, n_windows=2)
        occ.sample("d", 1.0, 2.0)
        occ.busy("p", 0.0, 5.0)
        occ.finish(10.0)
        blob = json.dumps(occ.report(), sort_keys=True)
        assert '"series"' in blob


class TestSloTimelineEdges:
    """Satellite: window-machinery edge cases the census rides on."""

    def test_zero_width_span_rejected(self):
        with pytest.raises(ValueError, match="empty SLO window span"):
            SloTimeline(7.0, 7.0)
        with pytest.raises(ValueError, match="empty SLO window span"):
            SloTimeline(7.0, 3.0)

    def test_run_ending_mid_window(self):
        tl = SloTimeline(0.0, 80.0, n_windows=8)
        for t in (5.0, 15.0, 25.0):  # run dies a third of the way in
            tl.observe(t, 1000.0)
        report = tl.report()
        assert len(report["windows"]) == 8
        assert [w["ops"] for w in report["windows"]] == \
            [1, 1, 1, 0, 0, 0, 0, 0]
        for w in report["windows"][3:]:
            assert w["goodput_mops"] == 0.0

    def test_windows_with_no_samples_have_none_percentiles(self):
        tl = SloTimeline(0.0, 40.0, n_windows=4)
        tl.observe(25.0, 2000.0)
        report = tl.report()
        rows = report["windows"]
        assert rows[2]["p50_us"] is not None
        for idx in (0, 1, 3):
            assert rows[idx]["p50_us"] is None
            assert rows[idx]["p99_us"] is None
            assert rows[idx]["p999_us"] is None
        json.dumps(report)  # Nones must stay JSON-safe


class TestGatingAudit:
    """Satellite: obs-off gating — every occupancy hook is fenced, and
    the PR-5 fast path carries zero observatory code."""

    #: components expected to carry occupancy hooks.
    HOOKED = {
        "net/fabric.py", "net/congestion/switch.py", "hw/rnic.py",
        "hw/pcie.py", "verbs/cq.py", "flock/credits.py", "flock/rpc.py",
    }

    def _hooked_files(self):
        found = {}
        for path in SRC.rglob("*.py"):
            rel = path.relative_to(SRC).as_posix()
            if rel.startswith("obs/") or rel.startswith("harness/"):
                continue
            text = path.read_text()
            if "self._occ" in text:
                found[rel] = text
        return found

    def test_expected_components_are_hooked(self):
        assert set(self._hooked_files()) == self.HOOKED

    def test_every_hook_site_is_gated(self):
        for rel, text in self._hooked_files().items():
            # the cached reference comes from sim.occupancy...
            assert re.search(r"self\._occ\s*=\s*\w+\.occupancy", text), (
                "%s: _occ not cached from sim.occupancy" % rel)
            # ...and at least one is-None fence guards its use.
            assert re.search(r"\b(?:self\._occ|occ) is not None", text), (
                "%s: occupancy hook not gated on is-not-None" % rel)

    def test_fast_path_source_has_no_observatory_code(self):
        src = inspect.getsource(Simulator.run)
        for token in ("occupancy", "profile", "_occ", "perf_counter"):
            assert token not in src, (
                "Simulator.run grew %r — the PR-5 fast path must stay "
                "byte-identical with profiling off" % token)


class TestHarnessIntegration:
    """Profiling on vs off: same simulation, extra report."""

    CFG = dict(n_clients=2, threads_per_client=2, outstanding=1)

    @pytest.fixture(autouse=True)
    def _smoke(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")

    def _fingerprint(self, r):
        return (r.ops, r.duration_ns, tuple(r.latency), dict(r.extras),
                json.dumps(r.slo, sort_keys=True))

    def test_profiled_run_is_virtually_identical(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        monkeypatch.delenv(OCCUPANCY_ENV, raising=False)
        plain = run_flock(MicrobenchConfig(**self.CFG))
        assert plain.profile is None
        monkeypatch.setenv(PROFILE_ENV, "1")
        monkeypatch.setenv(OCCUPANCY_ENV, "1")
        profiled = run_flock(MicrobenchConfig(**self.CFG))
        assert self._fingerprint(plain) == self._fingerprint(profiled)
        report = profiled.profile
        assert report is not None
        shares = [b["share"] for b in report["host"]["buckets"]]
        assert abs(sum(shares) - 1.0) < 1e-6
        occ = report["occupancy"]
        assert occ["n_windows"] == report["n_windows"]
        names = {row["name"] for row in occ["series"]}
        assert "flock.credits.available" in names

    def test_occupancy_only_mode(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        monkeypatch.setenv(OCCUPANCY_ENV, "1")
        result = run_flock(MicrobenchConfig(**self.CFG))
        assert result.profile is not None
        assert set(result.profile) == {"occupancy"}

    def test_host_block_always_present(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        monkeypatch.delenv(OCCUPANCY_ENV, raising=False)
        result = run_flock(MicrobenchConfig(**self.CFG))
        host = result.host
        assert host["events"] > 0
        assert host["wall_s"] > 0
        assert host["events_per_sec"] > 0
        # host cost never leaks into the determinism fingerprint.
        assert "wall_s" not in result.extras
