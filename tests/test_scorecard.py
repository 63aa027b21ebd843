"""Scorecards and the bench store: round-trips, gating, CLI exit codes."""

import json
import pathlib
import shutil

import pytest

from repro.harness import RunResult, scorecard_fig2a, scorecard_fig10
from repro.harness.cli import main as cli_main
from repro.obs import (
    Scorecard,
    compare_dirs,
    load_scorecard,
)
from repro.obs.benchstore import compare_runs
from repro.obs.scorecard import Metric, scorecard_filename

BASELINES = (pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
             / "baselines")


def compare_pair(baseline, current):
    """Compare one figure's two scorecards through the one comparison
    loop; tolerance and direction come from the baseline."""
    figure = baseline.figure
    return compare_runs({figure: baseline}, {figure: current}, "")


def make_result(mops, median_us=2.0, p99_us=8.0, **extras):
    ops = int(mops * 1e3)  # mops == ops / duration_ns * 1e3 at 1e6 ns
    return RunResult(ops=ops, duration_ns=1e6,
                     latency={"count": ops, "median": median_us * 1e3,
                              "p99": p99_us * 1e3, "mean": median_us * 1e3,
                              "min": 1.0, "max": p99_us * 1e3},
                     extras=dict(extras))


class TestScorecard:
    def test_metric_validation(self):
        with pytest.raises(ValueError):
            Metric("x", 1.0, better="sideways")
        with pytest.raises(ValueError):
            Metric("x", 1.0, rtol=-0.1)

    def test_passed_tracks_checks(self):
        sc = Scorecard("figx")
        assert sc.passed  # vacuous
        sc.add_check("good", True)
        assert sc.passed
        sc.add_check("bad", False)
        assert not sc.passed

    def test_metric_lookup(self):
        sc = Scorecard("figx")
        sc.add_metric("a", 1.0)
        assert sc.metric("a").value == 1.0
        assert sc.metric("missing") is None

    def test_round_trip(self, tmp_path):
        sc = Scorecard("figx", "a title", meta={"bench_scale": 1.0})
        sc.add_metric("mops", 42.5, better="higher", rtol=0.1, unit="Mops")
        sc.add_check("shape", True, "holds")
        path = sc.write(str(tmp_path))
        assert path.endswith("BENCH_figx.json")
        back = load_scorecard(path)
        assert back.figure == "figx"
        assert back.metric("mops").value == 42.5
        assert back.metric("mops").rtol == 0.1
        assert back.checks[0].name == "shape" and back.checks[0].passed
        assert back.meta["bench_scale"] == 1.0

    def test_written_json_is_stable(self, tmp_path):
        sc = Scorecard("figx")
        sc.add_metric("m", 1.0)
        path = sc.write(str(tmp_path))
        data = json.load(open(path))
        assert data["figure"] == "figx" and data["passed"] is True

    def test_filename_sanitized(self):
        assert scorecard_filename("fig2a") == "BENCH_fig2a.json"
        assert scorecard_filename("fig 2/a") == "BENCH_fig_2_a.json"

    def test_format_mentions_failures(self):
        sc = Scorecard("figx", "t")
        sc.add_check("bad", False, "why")
        assert "FAIL" in sc.format() and "why" in sc.format()


class TestCompare:
    def _pair(self):
        base = Scorecard("figx", meta={"bench_scale": 1.0})
        base.add_metric("tput", 100.0, better="higher", rtol=0.05)
        base.add_metric("lat", 10.0, better="lower", rtol=0.05)
        base.add_metric("note", 1.0, better="info")
        base.add_check("shape", True)
        cur = Scorecard("figx", meta={"bench_scale": 1.0})
        cur.add_metric("tput", 100.0, better="higher")
        cur.add_metric("lat", 10.0, better="lower")
        cur.add_metric("note", 999.0, better="info")
        cur.add_check("shape", True)
        return base, cur

    def test_identical_is_ok(self):
        base, cur = self._pair()
        report = compare_pair(base, cur)
        assert report.ok
        assert len(report.deltas) == 3

    def test_higher_metric_drop_gates(self):
        base, cur = self._pair()
        cur.metric("tput").value = 90.0  # -10% > 5% tolerance
        report = compare_pair(base, cur)
        assert not report.ok
        assert [d.name for d in report.regressions] == ["tput"]

    def test_higher_metric_improvement_never_gates(self):
        base, cur = self._pair()
        cur.metric("tput").value = 500.0
        assert compare_pair(base, cur).ok

    def test_lower_metric_rise_gates(self):
        base, cur = self._pair()
        cur.metric("lat").value = 12.0
        report = compare_pair(base, cur)
        assert [d.name for d in report.regressions] == ["lat"]

    def test_info_metric_never_gates(self):
        base, cur = self._pair()
        report = compare_pair(base, cur)  # note drifted 1 -> 999
        assert report.ok

    def test_equal_metric_gates_both_directions(self):
        base = Scorecard("figx")
        base.add_metric("degree", 2.0, better="equal", rtol=0.10)
        for drifted in (1.5, 2.5):
            cur = Scorecard("figx")
            cur.add_metric("degree", drifted)
            assert not compare_pair(base, cur).ok, drifted
        cur = Scorecard("figx")
        cur.add_metric("degree", 2.1)
        assert compare_pair(base, cur).ok

    def test_tolerance_comes_from_baseline(self):
        base, cur = self._pair()
        cur.metric("tput").value = 90.0
        cur.metric("tput").rtol = 0.5  # current's generous rtol is ignored
        assert not compare_pair(base, cur).ok

    def test_newly_failing_check_gates(self):
        base, cur = self._pair()
        cur.checks[0].passed = False
        report = compare_pair(base, cur)
        assert not report.ok
        assert report.failed_checks

    def test_check_failing_in_both_does_not_gate(self):
        base, cur = self._pair()
        base.checks[0].passed = False
        cur.checks[0].passed = False
        assert compare_pair(base, cur).ok

    def test_scale_mismatch_fails_figure(self):
        base, cur = self._pair()
        cur.meta["bench_scale"] = 0.5
        report = compare_pair(base, cur)
        assert not report.ok and not report.deltas
        assert [s.split(":")[0] for s in report.mismatched] == ["figx"]

    def test_missing_metric_fails(self):
        base, cur = self._pair()
        cur.metrics = [m for m in cur.metrics if m.name != "tput"]
        report = compare_pair(base, cur)
        assert not report.ok
        assert [s.split(":")[0] for s in report.missing] == ["figx/tput"]


class TestCompareDirs:
    def _write(self, d, figure, value, scale=1.0):
        sc = Scorecard(figure, meta={"bench_scale": scale})
        sc.add_metric("m", value, better="higher", rtol=0.05)
        sc.write(str(d))

    def test_dir_compare_and_figures_filter(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        self._write(base, "fig1", 10.0)
        self._write(base, "fig2", 10.0)
        self._write(cur, "fig1", 5.0)  # regressed
        self._write(cur, "fig2", 10.0)
        report = compare_dirs(str(base), str(cur))
        assert not report.ok
        assert {d.figure for d in report.regressions} == {"fig1"}
        only2 = compare_dirs(str(base), str(cur), figures=["fig2"])
        assert only2.ok and len(only2.deltas) == 1

    def test_missing_current_fails_unless_filtered_out(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        self._write(base, "fig1", 10.0)
        self._write(base, "fig2", 10.0)
        self._write(cur, "fig2", 10.0)
        report = compare_dirs(str(base), str(cur))
        assert not report.ok
        assert [s.split(":")[0] for s in report.missing] == ["fig1"]
        assert compare_dirs(str(base), str(cur), figures=["fig2"]).ok

    def test_no_baselines_fails(self, tmp_path):
        report = compare_dirs(str(tmp_path), str(tmp_path))
        assert not report.ok
        assert report.missing == ["no baselines in %s" % tmp_path]


class TestCliBenchCompare:
    def _write(self, d, value):
        sc = Scorecard("figx", meta={"bench_scale": 1.0})
        sc.add_metric("m", value, better="higher", rtol=0.05)
        sc.write(str(d))

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        self._write(tmp_path / "base", 10.0)
        self._write(tmp_path / "cur", 10.0)
        rc = cli_main(["bench-compare", "--baseline",
                       str(tmp_path / "base"), "--current",
                       str(tmp_path / "cur")])
        assert rc == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        self._write(tmp_path / "base", 10.0)
        self._write(tmp_path / "cur", 5.0)
        rc = cli_main(["bench-compare", "--baseline",
                       str(tmp_path / "base"), "--current",
                       str(tmp_path / "cur")])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestBenchCompareFailsClosed:
    """Mutations of a copy of the committed baselines that
    ``bench-compare`` must reject, each exiting 1."""

    @pytest.fixture
    def current(self, tmp_path):
        cur = tmp_path / "cur"
        shutil.copytree(BASELINES, cur)
        return cur

    def _compare(self, current, *extra):
        return cli_main(["bench-compare", "--baseline", str(BASELINES),
                         "--current", str(current), *extra])

    def test_unmutated_copy_passes(self, current, capsys):
        assert self._compare(current) == 0
        assert "0 missing" in capsys.readouterr().out

    def test_dropped_figure_fails(self, current, capsys):
        (current / "BENCH_fig9.json").unlink()
        assert self._compare(current) == 1
        assert "MISSING fig9: not produced" in capsys.readouterr().out
        # A figure excluded by --figures may be absent.
        assert self._compare(current, "--figures", "fig10") == 0

    def test_dropped_metric_fails(self, current, capsys):
        path = current / "BENCH_fig10.json"
        card = json.loads(path.read_text())
        dropped = card["metrics"].pop(0)["name"]
        path.write_text(json.dumps(card))
        assert self._compare(current) == 1
        assert ("MISSING fig10/%s: metric missing" % dropped
                in capsys.readouterr().out)

    def test_empty_baseline_dir_fails(self, current, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["bench-compare", "--baseline", str(empty),
                         "--current", str(current)]) == 1
        assert "MISSING no baselines in" in capsys.readouterr().out

    def test_scale_mismatch_fails(self, current, capsys):
        path = current / "BENCH_fig10.json"
        card = json.loads(path.read_text())
        card["meta"]["bench_scale"] = 0.1
        path.write_text(json.dumps(card))
        assert self._compare(current) == 1
        assert "MISMATCH fig10: bench_scale mismatch" in \
            capsys.readouterr().out
        # A figure excluded by --figures is not compared.
        assert self._compare(current, "--figures", "fig9") == 0

    def test_unrecorded_check_fails(self, current, capsys):
        path = current / "BENCH_fig10.json"
        card = json.loads(path.read_text())
        card["checks"].append({"name": "new_claim", "passed": True,
                               "detail": ""})
        path.write_text(json.dumps(card))
        assert self._compare(current) == 1
        assert ("MISSING fig10/new_claim: check not recorded"
                in capsys.readouterr().out)


class TestBuilders:
    """Builders condense synthetic sweeps shaped like the real ones."""

    def test_fig2a_shape_checks(self):
        results = {22: make_result(20.0, qp_cache_miss=0.0),
                   176: make_result(42.0, qp_cache_miss=0.01),
                   704: make_result(41.0, qp_cache_miss=0.2),
                   2816: make_result(5.0, qp_cache_miss=0.9)}
        sc = scorecard_fig2a(results)
        assert sc.figure == "fig2a"
        assert sc.passed, sc.format()
        assert sc.metric("peak_mops").value == pytest.approx(42.0)
        # Break the cliff: no collapse past the cache.
        results[2816] = make_result(41.0, qp_cache_miss=0.9)
        assert not scorecard_fig2a(results).passed

    def test_fig10_speedup_and_degree(self):
        results = {}
        for o, (off, on, deg) in {1: (40.0, 55.0, 1.5),
                                  8: (40.0, 70.0, 2.1)}.items():
            results[(False, o)] = make_result(off)
            results[(True, o)] = make_result(
                on, mean_coalescing_degree=deg)
        sc = scorecard_fig10(results)
        assert sc.passed, sc.format()
        assert sc.metric("speedup_o8").value == pytest.approx(70.0 / 40.0)
        assert sc.metric("degree_o8").better == "equal"
