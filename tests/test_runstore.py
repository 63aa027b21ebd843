"""The run-history store and its ``runs`` CLI front-end.

Unit half: record/list/get/diff on a tmp-path store with hand-built
scorecards — append-only ids, torn-line recovery, git context, config
fingerprints, tolerance-aware regression detection (improvements never
gate, only run A's tolerances do) through the same comparison loop as
``bench-compare``.  CLI half: the exit-code contract —
``runs diff`` returns 0 on a clean diff and nonzero on a regression
(a fault-injected fig6 run included) or a bad reference, without a
traceback.
"""

import json
import os

import pytest

from repro.harness.cli import main
from repro.obs.benchstore import compare_dirs
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
        assert rec.scorecard("figX").metric("mops").value == 33.0
        assert rec.passed

    def test_torn_line_is_skipped_and_next_record_reads(self, store,
                                                        capsys):
        """An interrupted append leaves a last line without its newline:
        reading skips it, and the next record starts a fresh line."""
        store.record([make_scorecard(mops=1.0)], label="first")
        store.record([make_scorecard(mops=2.0)], label="second")
        with open(store.path, "rb") as fh:
            data = fh.read()
        with open(store.path, "wb") as fh:
            fh.write(data[:-40])  # tear run 2 mid-record
        assert [r.run_id for r in store.list()] == [1]
        rec = store.record([make_scorecard(mops=3.0)], label="third")
        assert rec.run_id == 3
        assert [r.label for r in store.list()] == ["first", "third"]
        assert store.read()[1] == [2]
        assert store.get("latest").run_id == 3
        assert main(["runs", "--store", store.root, "list"]) == 0
        out = capsys.readouterr().out
        assert "third" in out
        assert "skipped unreadable line(s) 2" in out


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

    def test_figure_missing_from_b_fails(self, store):
        store.record([make_scorecard("fig2a"), make_scorecard("fig6")])
        store.record([make_scorecard("fig2a")])
        report = store.diff(1, 2)
        assert not report.ok
        assert report.missing == ["fig6: absent from run 2"]

    def test_scale_mismatch_gates(self, store):
        store.record([make_scorecard(scale=1.0)])
        store.record([make_scorecard(scale=0.05)])
        report = store.diff(1, 2)
        assert not report.ok
        assert report.mismatched

    def test_matches_bench_compare_over_directories(self, store, tmp_path):
        """``runs diff`` and ``bench-compare`` share one comparison loop:
        the same two scorecard sets, recorded as runs and written as
        directories, give the same deltas, failed checks and missing
        figures."""
        base = [make_scorecard("fig2a", mops=10.0),
                make_scorecard("fig6", check_ok=True),
                make_scorecard("fig9")]
        cur = [make_scorecard("fig2a", mops=8.0),     # regression
               make_scorecard("fig6", check_ok=False)]  # fig9 absent
        store.record(base)
        store.record(cur)
        for name, cards in (("base", base), ("cur", cur)):
            for sc in cards:
                sc.write(str(tmp_path / name))
        from_runs = store.diff(1, 2)
        from_dirs = compare_dirs(str(tmp_path / "base"),
                                 str(tmp_path / "cur"))
        assert from_runs.deltas == from_dirs.deltas
        assert any(d.regression and d.figure == "fig2a"
                   for d in from_runs.deltas)
        assert from_runs.failed_checks == from_dirs.failed_checks
        assert from_runs.failed_checks == ["fig6/shape_holds"]
        missing = [[s.split(":")[0] for s in report.missing]
                   for report in (from_runs, from_dirs)]
        assert missing[0] == missing[1] == ["fig9"]


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

    def test_store_flag_overrides_env(self, capsys):
        other = self.tmp / "elsewhere"
        d = self._scorecard_dir("clean", 10.0)
        assert main(["runs", "--store", str(other), "record", d]) == 0
        assert (other / "runs.jsonl").exists()

