"""The parallel sweep executor: unit behaviour and the determinism
contract.

``run_sweep`` must be a drop-in replacement for a serial ``for`` loop:
results come back in input order, keyed by the point's stable identity,
and — the acceptance criterion — a ``jobs=N`` run is *bit-identical* to
a serial run for every benchmark sweep.  These tests pin both halves:
the executor mechanics (ordering, worker results, the
telemetry-forces-serial guard, ``REPRO_JOBS`` resolution) and end-to-end determinism on real
figure sweeps at smoke scale.
"""

import json
import multiprocessing
import os

import pytest

from repro.harness import MicrobenchConfig, run_flock
from repro.harness.cli import main
from repro.harness.figures import FIGURES
from repro.harness.parallel import (
    JOBS_ENV,
    SweepPoint,
    default_jobs,
    run_sweep,
)
from repro.harness.scorecards import retention, scorecard_fig2a
from repro.obs.registry import Registry
from repro.obs.telemetry import Telemetry, current_telemetry, disable, enable
from repro.sim.rand import Streams

SMOKE = "0.05"


# Module-level so SweepPoints pickle across the process boundary.
def _square(x):
    return x * x


def _pid_and_value(x):
    return (os.getpid(), x)


def _tiny_flock():
    return run_flock(MicrobenchConfig(n_clients=2, threads_per_client=2,
                                      outstanding=1))


class TestRunSweep:
    def test_results_in_input_order(self):
        points = [SweepPoint("p%d" % i, _square, (i,)) for i in range(7)]
        for jobs in (1, 4):
            assert run_sweep(points, jobs) == \
                [("p%d" % i, i * i) for i in range(7)]

    def test_parallel_actually_uses_workers(self):
        points = [SweepPoint("p%d" % i, _pid_and_value, (i,))
                  for i in range(4)]
        pids = {pid for _k, (pid, _v) in run_sweep(points, 4)}
        assert os.getpid() not in pids

    def test_single_point_stays_serial(self):
        [(_key, (pid, _v))] = run_sweep(
            [SweepPoint("only", _pid_and_value, (1,))], 4)
        assert pid == os.getpid()

    def test_telemetry_forces_serial(self):
        enable(Telemetry())
        try:
            points = [SweepPoint("p%d" % i, _pid_and_value, (i,))
                      for i in range(4)]
            pids = {pid for _k, (pid, _v) in run_sweep(points, 4)}
            assert pids == {os.getpid()}
        finally:
            disable()
        assert current_telemetry() is None

    def test_worker_results_cross_the_process_boundary(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)
        points = [SweepPoint("r%d" % i, _tiny_flock) for i in range(2)]
        for _key, result in run_sweep(points, 2):
            assert result.ops > 0
            assert result.host["events"] > 0

    def test_metrics_only_telemetry_keeps_parallelism(self):
        """``wants_spans=False`` must not trip the forces-serial guard:
        points still fan out to worker processes."""
        enable(Telemetry(wants_spans=False))
        try:
            points = [SweepPoint("p%d" % i, _pid_and_value, (i,))
                      for i in range(4)]
            results = run_sweep(points, 4)
            pids = {pid for _k, (pid, _v) in results}
            assert os.getpid() not in pids
            assert [v for _k, (_pid, v) in results] == [0, 1, 2, 3]
        finally:
            disable()

    def test_metrics_merge_is_jobs_invariant(self, monkeypatch):
        """The folded metrics of a metrics-only sweep are identical for
        jobs=1 and jobs=4: every run, in this process or a worker,
        brings its metrics home on its result, folded in input order."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)
        snapshots = []
        for jobs in (1, 4):
            enable(Telemetry(wants_spans=False))
            try:
                points = [SweepPoint("r%d" % i, _tiny_flock)
                          for i in range(3)]
                folded = Registry()
                for _key, result in run_sweep(points, jobs):
                    folded.merge_state(result.metrics)
                snapshots.append(json.dumps(folded.snapshot(),
                                            sort_keys=True))
            finally:
                disable()
        assert snapshots[0] == snapshots[1]
        assert '"count"' in snapshots[0]  # histograms actually recorded

    def test_spawned_workers_instrument_their_runs(self, monkeypatch):
        """A spawned worker inherits no telemetry; the pool's
        initializer gives it a metrics-only one, so its runs still
        bring metrics home."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda _method: spawn)
        enable(Telemetry(wants_spans=False))
        try:
            results = run_sweep([SweepPoint("r%d" % i, _tiny_flock)
                                 for i in range(2)], 2)
        finally:
            disable()
        assert all(result.metrics is not None for _key, result in results)


class TestDefaultJobs:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert default_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "6")
        assert default_jobs(None) == 6

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            default_jobs(None)

    def test_empty_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "")
        assert default_jobs(None) == 1

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs(None) == 1
        assert default_jobs(0) == 1


class TestChildStreams:
    def test_child_is_pure_function_of_seed_and_id(self):
        root = Streams(42)
        a, b = root.child("fig2a/qps=88"), root.child("fig2a/qps=88")
        assert a.seed == b.seed
        assert a.stream("jitter").random() == b.stream("jitter").random()

    def test_distinct_ids_diverge(self):
        root = Streams(42)
        assert root.child("fig2a/qps=88").seed != \
            root.child("fig2a/qps=176").seed

    def test_child_seed_is_bounded(self):
        seed = Streams(2 ** 40).child("x" * 100).seed
        assert 0 <= seed < 2 ** 63


def _result_fingerprint(r):
    return (r.ops, r.duration_ns, tuple(r.latency), dict(r.extras),
            json.dumps(r.slo, sort_keys=True),
            json.dumps(r.anomalies, sort_keys=True))


class TestSweepDeterminism:
    """jobs=1 vs jobs=4 on real figure sweeps: bit-identical."""

    @pytest.fixture(autouse=True)
    def _smoke_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)

    def test_fig2a_metrics_and_scorecard(self):
        qps = [8, 16]
        spec = FIGURES["fig2a"]
        serial = spec.run(1, qps=qps, clients=2)
        parallel = spec.run(4, qps=qps, clients=2)
        assert list(serial) == list(parallel) == qps
        for q in qps:
            assert _result_fingerprint(serial[q]) == \
                _result_fingerprint(parallel[q])
        def dump(res):
            return json.dumps(scorecard_fig2a(res).to_dict(), sort_keys=True)
        assert dump(serial) == dump(parallel)

    def test_incast_legs_and_retention(self):
        spec = FIGURES["incast"]
        opts = dict(spec.defaults, senders=3, threads=2)
        serial = spec.run(1, **opts)
        parallel = spec.run(4, **opts)
        assert list(serial) == list(parallel) == [
            "flock_base", "flock_cong", "ud_base", "ud_cong"]
        for leg in serial:
            assert _result_fingerprint(serial[leg]) == \
                _result_fingerprint(parallel[leg])
        for system in ("flock", "ud"):
            assert retention(serial, system) == retention(parallel, system)

    @pytest.mark.parametrize("figure", [
        ["fig2a", "--qps", "8", "16", "--clients", "2"],
        ["incast", "--senders", "3", "--threads", "2"],
    ], ids=["fig2a", "incast"])
    def test_cli_tables_and_scorecards_identical_across_jobs(
            self, figure, tmp_path, capsys):
        """The CLI's stdout (bar the ``wrote scorecard:`` lines, which
        name the directory) and its scorecard directory are byte-identical
        at ``--jobs 1`` and ``--jobs 4``."""
        outs, dirs = [], []
        for jobs in (1, 4):
            directory = tmp_path / ("jobs%d" % jobs)
            main(["--scale", "0.1", "--jobs", str(jobs),
                  "--scorecard", str(directory)] + figure)
            outs.append([line for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("wrote scorecard:")])
            dirs.append({p.name: p.read_bytes()
                         for p in sorted(directory.iterdir())})
        assert outs[0] == outs[1]
        assert dirs[0] == dirs[1] and dirs[0]

    def test_cli_metrics_file_identical_across_jobs(self, tmp_path,
                                                    capsys):
        """``--metrics`` no longer forces telemetry off under --jobs:
        the merged counter/histogram dump is byte-identical for any
        worker count."""
        dumps = []
        for jobs, name in ((1, "serial.json"), (4, "parallel.json")):
            path = tmp_path / name
            main(["--scale", SMOKE, "--jobs", str(jobs),
                  "--metrics", str(path),
                  "fig2a", "--qps", "8", "16", "--clients", "2"])
            capsys.readouterr()
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
        assert b'"count"' in dumps[0]

    def test_cli_slo_timeline_identical_across_jobs(self, tmp_path,
                                                    capsys):
        dumps = []
        for jobs, name in ((1, "s.json"), (4, "p.json")):
            path = tmp_path / name
            main(["--scale", SMOKE, "--jobs", str(jobs),
                  "--slo-timeline", str(path),
                  "fig2a", "--qps", "8", "16", "--clients", "2"])
            capsys.readouterr()
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
        blocks = json.loads(dumps[0])
        assert blocks  # one timeline per sweep point
        for label, block in blocks.items():
            rows = block["windows"]
            assert rows and sum(r["ops"] for r in rows) > 0, label

    def test_cli_attribution_table_identical(self, capsys):
        """Observability runs are forced serial, so ``--jobs`` may never
        change an attribution table — not even its formatting."""
        argv = ["--scale", SMOKE, "--attribution",
                "fig2a", "--qps", "8", "--clients", "2"]
        main(argv)
        serial_out = capsys.readouterr().out
        main(["--jobs", "4"] + argv)
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "attribution" in serial_out.lower()
