"""The figure registry's wiring: every CLI figure subcommand reaches its
:class:`repro.harness.FigureSpec`, and every committed baseline matches
what its spec emits.

``run_sweep`` is patched with a recorder that returns canned results, so
these tests pin which points each entry point evaluates and which tables
and scorecards it emits without simulating anything.
"""

import collections
import pathlib
from unittest.mock import patch

import pytest

from repro.harness import (
    FIGURES,
    RunResult,
    format_table,
    run_erpc_index,
    run_flock_index,
    run_thread_sched,
)
from repro.harness.cli import main
from repro.obs import load_scorecard

BASELINES = (pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
             / "baselines")


def _canned(point, i):
    """A made-up result shaped like what ``point.fn`` returns."""
    run = RunResult(
        ops=100 + i, duration_ns=1000.0,
        latency={"count": 1, "median": 1000.0 + i, "p99": 2000.0 + i,
                 "p999": 3000.0 + i, "mean": 1000.0, "min": 1.0,
                 "max": 4000.0},
        extras=collections.defaultdict(lambda: 1))
    if point.fn in (run_flock_index, run_erpc_index):
        return {"get": run, "scan": run, "total_mops": 100.0 + i}
    if point.fn is run_thread_sched:
        return {"small": run, "large": run, "mops": 100.0 + i,
                "mixed_qps": i}
    return run


class SweepRecorder:
    """Stands in for ``run_sweep``: records each call's points and
    returns canned results in input order."""

    def __init__(self):
        self.calls = []

    def __call__(self, points, jobs=1):
        points = list(points)
        self.calls.append(points)
        return [(p.key, _canned(p, i)) for i, p in enumerate(points)]


def _canned_results(points):
    return {key: _canned(p, i) for i, (key, p) in enumerate(points.items())}


def _first_values(spec):
    """The spec's options with every list cut to its first value."""
    return {name: value[:1] if isinstance(value, list) else value
            for name, value in spec.defaults.items()}


def _argv(opts):
    argv = []
    for name, value in opts.items():
        values = value if isinstance(value, list) else [value]
        argv += ["--" + name] + [str(v) for v in values]
    return argv


class TestCliFigures:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_subcommand_runs_its_spec(self, name, capsys, tmp_path):
        """With no options, a subcommand evaluates exactly
        ``spec.points(**defaults)``, prints ``spec.tables`` and writes
        one file per ``spec.scorecards``."""
        spec = FIGURES[name]
        recorder = SweepRecorder()
        with patch("repro.harness.figures.run_sweep", recorder):
            assert main(["--scorecard", str(tmp_path), name]) == 0
        out = capsys.readouterr().out
        points = spec.points(**spec.defaults)
        assert recorder.calls == [list(points.values())]
        results = _canned_results(points)
        tables = spec.tables(results, **spec.defaults)
        assert tables
        for table in tables:
            assert format_table(*table) in out
        scorecards = spec.scorecards(results, **spec.defaults)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            "BENCH_%s.json" % sc.figure for sc in scorecards)

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_options_reach_the_points(self, name, capsys):
        spec = FIGURES[name]
        opts = _first_values(spec)
        recorder = SweepRecorder()
        with patch("repro.harness.figures.run_sweep", recorder):
            main([name] + _argv(opts))
        capsys.readouterr()
        assert recorder.calls == [list(spec.points(**opts).values())]

    def test_explain_runs_the_fig2a_spec(self, capsys):
        spec = FIGURES["fig2a"]
        recorder = SweepRecorder()
        with patch("repro.harness.figures.run_sweep", recorder):
            assert main(["explain", "fig2a"]) == 0
        assert "=== fig2a" in capsys.readouterr().out
        assert recorder.calls == [
            list(spec.points(**spec.defaults).values())]



def test_every_baseline_metric_is_emitted():
    """``bench-compare`` fails on a baseline figure or gated metric the
    run lacks, and on a check the baseline does not record.  So every
    scorecard a spec emits at its defaults has a committed baseline,
    every metric that baseline records is one the spec still emits, and
    every check the spec emits is one the baseline records (checked on
    canned results)."""
    emitted = {}
    for spec in FIGURES.values():
        results = _canned_results(spec.points(**spec.defaults))
        for scorecard in spec.scorecards(results, **spec.defaults):
            emitted[scorecard.figure] = scorecard
    baselines = {card.figure: card for card in
                 map(load_scorecard, BASELINES.glob("BENCH_*.json"))}
    assert set(emitted) <= set(baselines)
    for figure, scorecard in emitted.items():
        baseline = baselines[figure]
        recorded = {m.name for m in baseline.metrics}
        names = {m.name for m in scorecard.metrics}
        assert recorded <= names, (figure, sorted(recorded - names))
        checks = {c.name for c in scorecard.checks}
        unrecorded = checks - {c.name for c in baseline.checks}
        assert not unrecorded, (figure, sorted(unrecorded))
