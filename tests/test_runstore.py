"""The queryable run-history store and its ``runs`` CLI front-end.

Unit half: record/list/get/diff/query on a tmp-path store with
hand-built scorecards — append-only ids, git context, config
fingerprints, tolerance-aware regression detection (improvements never
gate, only run A's tolerances do).  CLI half: the exit-code contract —
``runs diff`` returns 0 on a clean diff and nonzero on a regression
(a fault-injected fig6 run included) or a bad reference, without a
traceback.
"""

import importlib.util
import json
import os
import pathlib
from types import SimpleNamespace

import pytest

from repro.harness.cli import main
from repro.obs.faults import FAULTS_ENV
from repro.obs.runstore import (
    RUNSTORE_DIR_ENV,
    RunStore,
    config_fingerprint,
    default_store_dir,
    git_context,
)
from repro.obs.scorecard import Scorecard


def make_scorecard(figure="figX", mops=10.0, check_ok=True, scale=1.0):
    sc = Scorecard(figure=figure, title="test figure")
    sc.add_metric("mops", mops, better="higher", rtol=0.05)
    sc.add_metric("p99_us", 5.0, better="lower", rtol=0.10)
    sc.add_check("shape_holds", check_ok)
    sc.meta["bench_scale"] = scale
    return sc


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "rs"))


class TestRecord:
    def test_ids_are_appended_line_numbers(self, store):
        assert store.record([make_scorecard()]).run_id == 1
        assert store.record([make_scorecard()]).run_id == 2
        assert [r.run_id for r in store.list()] == [1, 2]

    def test_append_only(self, store):
        store.record([make_scorecard(mops=1.0)], label="first")
        with open(store.path) as fh:
            first_line = fh.readline()
        store.record([make_scorecard(mops=2.0)], label="second")
        with open(store.path) as fh:
            assert fh.readline() == first_line

    def test_store_dir_is_gitignored(self, store):
        store.record([make_scorecard()])
        with open(os.path.join(store.root, ".gitignore")) as fh:
            assert fh.read().strip() == "*"

    def test_git_context_recorded(self, store):
        rec = store.record([make_scorecard()])
        # The test runs inside the repo, so a real commit is captured.
        assert rec.git["commit"]
        assert len(rec.git["commit"]) == 40

    def test_git_context_degrades_outside_repo(self, tmp_path):
        ctx = git_context(str(tmp_path))
        assert ctx == {"commit": None, "branch": None, "dirty": None}

    def test_fingerprint_tracks_run_shape(self):
        a = [make_scorecard("fig2a"), make_scorecard("fig6")]
        b = [make_scorecard("fig6"), make_scorecard("fig2a")]  # order-free
        c = [make_scorecard("fig2a")]
        d = [make_scorecard("fig2a", scale=0.05)]
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(c)
        assert config_fingerprint(c) != config_fingerprint(d)

    def test_record_roundtrips_through_jsonl(self, store):
        store.record([make_scorecard(mops=33.0)], label="nightly",
                     meta={"host": "ci"}, timestamp=1_700_000_000.0)
        rec = store.get(1)
        assert rec.label == "nightly"
        assert rec.meta == {"host": "ci"}
        assert rec.timestamp == 1_700_000_000.0
        assert rec.metric("figX", "mops") == 33.0
        assert rec.passed


class TestGet:
    def test_reference_forms(self, store):
        store.record([make_scorecard()])
        assert store.get(1).run_id == 1
        assert store.get("1").run_id == 1
        assert store.get("run:1").run_id == 1

    def test_latest_and_negative_references(self, store):
        store.record([make_scorecard()])
        store.record([make_scorecard()])
        store.record([make_scorecard()])
        assert store.get("latest").run_id == 3
        assert store.get("run:latest").run_id == 3
        assert store.get(-1).run_id == 3
        assert store.get("-1").run_id == 3
        assert store.get("run:-2").run_id == 2

    def test_negative_reference_past_history_raises(self, store):
        store.record([make_scorecard()])
        with pytest.raises(KeyError):
            store.get(-2)

    def test_latest_on_empty_store_raises(self, store):
        with pytest.raises(KeyError):
            store.get("latest")

    def test_unknown_id_raises(self, store):
        with pytest.raises(KeyError):
            store.get(99)

    def test_garbage_reference_raises(self, store):
        with pytest.raises(KeyError):
            store.get("nightly-4")


class TestDiff:
    def test_self_diff_is_clean(self, store):
        store.record([make_scorecard()])
        report = store.diff(1, 1)
        assert report.ok
        assert not any(d.regression for d in report.deltas)

    def test_regression_detected(self, store):
        store.record([make_scorecard(mops=10.0)])
        store.record([make_scorecard(mops=8.0)])  # -20% >> 5% rtol
        report = store.diff(1, 2)
        assert not report.ok
        assert any(d.regression and d.name == "mops"
                   for d in report.deltas)

    def test_improvement_never_gates(self, store):
        store.record([make_scorecard(mops=10.0)])
        store.record([make_scorecard(mops=20.0)])
        assert store.diff(1, 2).ok

    def test_within_tolerance_is_clean(self, store):
        store.record([make_scorecard(mops=10.0)])
        store.record([make_scorecard(mops=9.7)])  # -3% < 5% rtol
        assert store.diff(1, 2).ok

    def test_check_regression_gates(self, store):
        store.record([make_scorecard(check_ok=True)])
        store.record([make_scorecard(check_ok=False)])
        report = store.diff(1, 2)
        assert not report.ok
        assert report.failed_checks

    def test_figure_missing_from_b_is_a_skip(self, store):
        store.record([make_scorecard("fig2a"), make_scorecard("fig6")])
        store.record([make_scorecard("fig2a")])
        report = store.diff(1, 2)
        assert report.ok
        assert any("fig6" in s for s in report.skipped)

    def test_scale_mismatch_skips_not_gates(self, store):
        store.record([make_scorecard(scale=1.0)])
        store.record([make_scorecard(mops=1.0, scale=0.05)])
        report = store.diff(1, 2)
        assert report.ok
        assert report.skipped

    def test_anomaly_drift_flagged_but_never_gates(self, store):
        anomaly = {"kind": "changepoint", "figure": "figX",
                   "series": "flock", "metric": "p99_us", "x": 4.0,
                   "span": [100.0, 200.0], "direction": "rise",
                   "severity": 0.5, "detail": "", "evidence": {}}
        a = make_scorecard()
        b = make_scorecard()
        b.meta["anomalies"] = {"runs": {"flock": [anomaly]}}
        store.record([a])
        store.record([b])
        report = store.diff(1, 2)
        assert report.ok  # informational, not a gate
        assert any("new" in flag and "p99_us" in flag
                   for flag in report.anomaly_flags)
        assert "anomaly" in report.format()
        # The reverse direction reports the anomaly as vanished.
        back = store.diff(2, 1)
        assert any("vanished" in flag for flag in back.anomaly_flags)


class TestQuery:
    @pytest.fixture
    def seeded(self, store):
        store.record([make_scorecard("fig2a", mops=40.0)], label="nightly")
        store.record([make_scorecard("fig2a", mops=50.0),
                      make_scorecard("fig6", mops=25.0)], label="pr")
        store.record([make_scorecard("fig2a", mops=30.0,
                                     check_ok=False)], label="nightly")
        return store

    def test_field_matches(self, seeded):
        assert [r.run_id for r in seeded.query(["label=nightly"])] == [1, 3]
        assert [r.run_id for r in seeded.query(["figure=fig6"])] == [2]
        assert [r.run_id for r in seeded.query(["passed=false"])] == [3]

    def test_commit_prefix_match(self, seeded):
        prefix = seeded.get(1).git["commit"][:8]
        assert len(seeded.query(["commit=%s" % prefix])) == 3

    def test_metric_expressions(self, seeded):
        assert [r.run_id for r in
                seeded.query(["fig2a.mops>=40"])] == [1, 2]
        assert [r.run_id for r in
                seeded.query(["fig2a.mops<35"])] == [3]
        assert [r.run_id for r in
                seeded.query(["fig6.mops==25"])] == [2]

    def test_conjunction(self, seeded):
        assert [r.run_id for r in
                seeded.query(["label=nightly", "fig2a.mops>35"])] == [1]

    def test_missing_metric_never_matches(self, seeded):
        assert seeded.query(["fig9.mops>0"]) == []

    def test_bad_expression_raises(self, seeded):
        with pytest.raises(ValueError):
            seeded.query(["no-operator-here"])
        with pytest.raises(ValueError):
            seeded.query(["bogusfield=3"])


class TestDefaultDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(RUNSTORE_DIR_ENV, str(tmp_path))
        assert default_store_dir() == str(tmp_path)

    def test_default_is_in_benchmarks(self, monkeypatch):
        monkeypatch.delenv(RUNSTORE_DIR_ENV, raising=False)
        assert default_store_dir().endswith(
            os.path.join("benchmarks", "runstore"))


class TestRunsCli:
    """Exit-code contract: 0 clean, 1 on regression or bad input."""

    @pytest.fixture(autouse=True)
    def _isolated_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv(RUNSTORE_DIR_ENV, str(tmp_path / "store"))
        self.tmp = tmp_path

    def _scorecard_dir(self, name, mops):
        d = self.tmp / name
        d.mkdir()
        sc = make_scorecard("fig2a", mops=mops)
        with open(d / "BENCH_fig2a.json", "w") as fh:
            json.dump(sc.to_dict(), fh)
        return str(d)

    def test_list_empty_store(self, capsys):
        assert main(["runs", "list"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_record_list_show(self, capsys):
        d = self._scorecard_dir("clean", 10.0)
        assert main(["runs", "record", d, "--label", "clean"]) == 0
        assert main(["runs", "list"]) == 0
        assert main(["runs", "show", "1"]) == 0
        out = capsys.readouterr().out
        assert "recorded run 1" in out
        assert "clean" in out
        assert "fig2a" in out

    def test_record_empty_dir_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["runs", "record", str(empty)]) == 1

    def test_diff_exit_codes(self, capsys):
        main(["runs", "record", self._scorecard_dir("clean", 10.0)])
        main(["runs", "record", self._scorecard_dir("bad", 7.0)])
        assert main(["runs", "diff", "1", "1"]) == 0
        assert main(["runs", "diff", "1", "2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_fails_a_fault_injected_figure_run(self, monkeypatch,
                                                     capsys):
        """The regression gate on real runs: fig6 with FLock's credit
        refills dropped (``credits.drop_refill``) regresses against a
        clean fig6 run, and the clean run diffs clean against itself."""
        for name, fault in (("clean", ""), ("faulty", "credits.drop_refill")):
            monkeypatch.setenv(FAULTS_ENV, fault)
            d = str(self.tmp / name)
            assert main(["--scale", "0.1", "--scorecard", d, "fig6",
                         "--threads", "8", "--outstanding", "1",
                         "--clients", "4"]) == 0
            assert main(["runs", "record", d, "--label", name]) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "1", "1"]) == 0
        assert main(["runs", "diff", "1", "2"]) == 1
        assert "flock_mops_t8" in capsys.readouterr().out

    def test_bad_reference_is_an_error_not_a_traceback(self, capsys):
        assert main(["runs", "show", "42"]) == 1
        assert main(["runs", "diff", "1", "2"]) == 1
        assert "no run" in capsys.readouterr().out

    def test_query_cli(self, capsys):
        main(["runs", "record", self._scorecard_dir("clean", 10.0),
              "--label", "nightly"])
        assert main(["runs", "query", "label=nightly"]) == 0
        assert main(["runs", "query", "label=other"]) == 0
        out = capsys.readouterr().out
        assert "nightly" in out
        assert "no runs match" in out

    def test_store_flag_overrides_env(self, capsys):
        other = self.tmp / "elsewhere"
        d = self._scorecard_dir("clean", 10.0)
        assert main(["runs", "--store", str(other), "record", d]) == 0
        assert (other / "runs.jsonl").exists()


def _bench_conftest():
    """``benchmarks/conftest.py``, loaded as a plain module."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
            / "conftest.py")
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("raw,recorded", [
    ("0", False), ("false", False), ("off", False), ("no", False),
    ("1", True), ("on", True),
])
def test_bench_session_runstore_knob_is_boolean(raw, recorded, monkeypatch,
                                               tmp_path):
    """``REPRO_RUNSTORE`` parses like every boolean run knob: any off
    spelling keeps a bench session out of the run store."""
    monkeypatch.setenv("REPRO_RUNSTORE", raw)
    monkeypatch.setenv(RUNSTORE_DIR_ENV, str(tmp_path / "rs"))
    lines = []
    _bench_conftest()._record_run(SimpleNamespace(write_line=lines.append))
    assert len(RunStore().list()) == int(recorded)
    assert bool(lines) is recorded
