"""Host-time census: callback classification and per-bucket accounting
in :class:`SimProfile`, virtual-time identity of ``run_profiled`` versus
``run``, and that the fast path (``Simulator.run``) carries no profiler
code.
"""

import inspect
import json
import pathlib

import pytest

from repro.harness import MicrobenchConfig, run_flock, run_raw_reads
from repro.harness.incastbench import IncastConfig, run_incast_flock
from repro.obs.simprof import (
    PROFILE_ENV,
    SimProfile,
    component_bucket,
    profile_enabled,
)
from repro.obs.windows import SloTimeline
from repro.sim.core import Simulator
from repro.verbs import QueuePair

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
        prof = SimProfile(100.0, 200.0)
        sim.run_profiled(prof, until=until)
        return sim, prof

    def test_classification_and_shares(self):
        sim, prof = self._profiled_run()
        assert "app;process" in prof.dispatched
        assert "app;callback" in prof.dispatched
        assert "app;timer" in prof.dispatched
        assert sum(prof.dispatched.values()) == sim.events_processed
        report = prof.report()
        shares = [b["share"] for b in report["host"]["buckets"]]
        assert abs(sum(shares) - 1.0) < 1e-6
        assert report["host"]["total_ns"] > 0

    def test_bare_timeout_is_a_timer(self):
        sim = Simulator()
        sim.timeout(1.0)
        prof = SimProfile(0.0, 10.0)
        sim.run_profiled(prof, until=10.0)
        assert prof.dispatched.get("timers;timer") == 1

    def test_report_is_json_serializable(self):
        _sim, prof = self._profiled_run()
        blob = json.dumps(prof.report(), sort_keys=True)
        assert '"buckets"' in blob


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
    """The fast path carries zero profiler code."""

    def test_fast_path_source_has_no_observatory_code(self):
        src = inspect.getsource(Simulator.run)
        for token in ("profile", "perf_counter"):
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
        plain = run_flock(MicrobenchConfig(**self.CFG))
        assert plain.profile is None
        monkeypatch.setenv(PROFILE_ENV, "1")
        profiled = run_flock(MicrobenchConfig(**self.CFG))
        assert self._fingerprint(plain) == self._fingerprint(profiled)
        report = profiled.profile
        assert report is not None
        shares = [b["share"] for b in report["host"]["buckets"]]
        assert abs(sum(shares) - 1.0) < 1e-6

    def test_host_block_always_present(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        result = run_flock(MicrobenchConfig(**self.CFG))
        assert set(result.host) == {"events"}
        assert result.host["events"] > 0
        assert "events" not in result.extras


def _idle_events(report):
    return sum(b["events"] for b in report["host"]["buckets"]
               if (b["component"], b["kind"]) == ("kernel", "idle"))


class TestEveryEventWakesSomeone:
    """A verb's process is its own completion, and a verb or CNP nobody
    waits on runs detached, so no event fires idle (``kernel;idle``)."""

    def test_waited_reads_fire_no_idle_event(self):
        result = run_raw_reads(24, n_clients=3, profile=True)
        assert result.ops > 0
        assert _idle_events(result.profile) == 0

    def test_flock_fires_no_idle_event(self, monkeypatch):
        posted = [0]
        post_send = QueuePair.post_send

        def counting_post_send(qp, wr, remote=None, *, wait=True):
            posted[0] += 1
            return post_send(qp, wr, remote, wait=wait)

        monkeypatch.setattr(QueuePair, "post_send", counting_post_send)
        result = run_flock(MicrobenchConfig(
            n_clients=3, threads_per_client=4, outstanding=2,
            warmup_ns=150_000, measure_ns=150_000), profile=True)
        assert posted[0] > 0
        assert _idle_events(result.profile) == 0

    def test_congested_incast_fires_no_idle_event(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        result = run_incast_flock(
            IncastConfig(n_senders=4, threads_per_client=3,
                         warmup_ns=100_000.0, measure_ns=150_000.0),
            congested=True)
        assert result.extras["cnps"] > 0
        assert _idle_events(result.profile) == 0
