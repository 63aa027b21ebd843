"""The command-line experiment runner."""

import json

import pytest

from repro.harness import FIGURES
from repro.harness.cli import build_parser, main


class TestParser:
    def test_all_experiments_listed(self, capsys):
        main(["list"])
        listed = set(capsys.readouterr().out.split())
        assert set(FIGURES) <= listed

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        """A figure's options default to its full benchmark sweep."""
        args = build_parser().parse_args(["fig6"])
        assert args.threads == [1, 4, 8, 16, 32, 48]
        assert args.outstanding == [1, 4, 8]
        assert args.clients == 23

    def test_fig11_and_fig12_parsers(self):
        args = build_parser().parse_args(["fig11", "--sizes", "512"])
        assert args.sizes == [512]
        args = build_parser().parse_args(["fig12", "--clients", "46"])
        assert args.clients == [46]

    @pytest.mark.parametrize("argv", [
        ["fig14", "--workload", "smallbank"],
        ["incast", "--pfc-incast"],
        ["fig10", "--outstanding-list", "1"],
        ["fig12", "--clients-list", "46"],
    ])
    def test_deleted_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_scale_flag_sets_env(self, capsys):
        import os
        main(["--scale", "0.5", "list"])
        assert os.environ["REPRO_BENCH_SCALE"] == "0.5"


class TestSmallRuns:
    def test_fig2a_prints_table(self, capsys):
        main(["--scale", "0.5", "fig2a", "--qps", "8", "--clients", "2"])
        out = capsys.readouterr().out
        assert "Fig 2(a)" in out and "Mops" in out

    def test_fig6_prints_table(self, capsys):
        main(["--scale", "0.3", "fig6", "--threads", "2",
              "--outstanding", "1", "--clients", "2"])
        out = capsys.readouterr().out
        assert "FLock" in out and "eRPC" in out

    def test_incast_congested_legs_attribute_switch_queue(self, tmp_path,
                                                          capsys):
        attr = tmp_path / "incast.attr.json"
        cards = tmp_path / "scorecards"
        assert main(["--scale", "0.1", "--audit", "--attribution",
                     "--attribution-json", str(attr),
                     "--scorecard", str(cards), "incast"]) == 0
        report = json.loads(attr.read_text())
        cong = {label: rep for label, rep in report.items()
                if "cong" in label}
        assert cong, sorted(report)
        for label, rep in cong.items():
            total = sum(cell["share"] for cell in rep["attribution"].values())
            assert total == pytest.approx(1.0, abs=1e-6), label
        assert any("switch_queue" in rep["attribution"]
                   for rep in cong.values())
        card = json.loads((cards / "BENCH_ext_incast.json").read_text())
        assert card["checks"]
        assert all(c["passed"] for c in card["checks"]), card["checks"]

    def test_fig2a_trace_attribution_and_folded_stacks(self, tmp_path,
                                                       capsys):
        trace = tmp_path / "fig2a.trace.json"
        attr = tmp_path / "fig2a.attr.json"
        folded = tmp_path / "fig2a.folded"
        assert main(["--scale", "0.1", "--breakdown", "--trace", str(trace),
                     "--attribution", "--attribution-json", str(attr),
                     "--critical-path", str(folded),
                     "fig2a", "--qps", "8", "--clients", "2"]) == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events), "no span events"
        assert all(e.get("dur", 0) >= 0 for e in events)
        report = json.loads(attr.read_text())
        assert report, "empty attribution report"
        for label, rep in report.items():
            assert rep["paths"] > 0, label
            total = sum(cell["share"] for cell in rep["attribution"].values())
            assert total == pytest.approx(1.0, abs=1e-6), label
        lines = folded.read_text().splitlines()
        assert lines, "empty folded-stack export"
        for line in lines:
            frame, ns = line.rsplit(" ", 1)
            assert ";" in frame and int(ns) >= 0, line


    def test_step_fault_fires_goodput_changepoints(self, tmp_path,
                                                   monkeypatch, capsys):
        """``bench.step_handler_cost`` steps the echo handler's cost up
        halfway through the measurement window: every faulted fig6 leg
        shows a goodput drop changepoint, and the clean twin none."""
        def goodput_drops(faults_env):
            if faults_env:
                monkeypatch.setenv("REPRO_FAULTS", faults_env)
            else:
                monkeypatch.delenv("REPRO_FAULTS", raising=False)
            out = tmp_path / ("faulty" if faults_env else "clean")
            assert main(["--scale", "0.1", "--scorecard", str(out), "fig6",
                         "--threads", "1", "8", "--outstanding", "1",
                         "--clients", "4"]) == 0
            meta = json.loads((out / "BENCH_fig6.json").read_text())["meta"]
            runs = meta.get("anomalies", {}).get("runs", {})
            return {label: any(a["kind"] == "changepoint"
                               and a["metric"] == "goodput_mops"
                               and a["direction"] == "drop" for a in found)
                    for label, found in runs.items()}

        clean = goodput_drops(None)
        faulty = goodput_drops("bench.step_handler_cost")
        capsys.readouterr()
        assert not any(clean.values()), clean
        assert len(faulty) == 4 and all(faulty.values()), faulty

    def test_explain_fig2a_is_byte_deterministic(self, tmp_path,
                                                 monkeypatch, capsys):
        """``explain fig2a`` twice prints the same report and writes the
        same JSON, byte for byte."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        report = tmp_path / "fig2a.anomalies.json"

        def explain():
            assert main(["explain", "fig2a", "--qps", "22", "176", "704",
                         "2816", "--json", str(report)]) == 0
            return capsys.readouterr().out, report.read_bytes()

        first = explain()
        assert "=== fig2a" in first[0]
        assert first == explain()


class TestRunKnobs:
    """The boolean knobs share one parser; malformed values of any run
    knob fail loudly instead of silently picking a default."""

    @staticmethod
    def _flags():
        from repro.obs.audit import AUDIT_ENV, audit_enabled
        from repro.obs.simprof import PROFILE_ENV, profile_enabled
        return [(AUDIT_ENV, audit_enabled), (PROFILE_ENV, profile_enabled)]

    @pytest.mark.parametrize("raw,want", [
        ("1", True), ("true", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("off", False),
        ("", False),
    ])
    def test_boolean_knobs_agree(self, monkeypatch, raw, want):
        for var, enabled in self._flags():
            monkeypatch.setenv(var, raw)
            assert enabled() is want, var

    @pytest.mark.parametrize("raw", ["2", "enable", "y"])
    def test_malformed_boolean_knob_raises(self, monkeypatch, raw):
        for var, enabled in self._flags():
            monkeypatch.setenv(var, raw)
            with pytest.raises(ValueError, match=var):
                enabled()

    def test_malformed_knob_fails_the_command(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_AUDIT", "2")
        with pytest.raises(ValueError, match="REPRO_AUDIT"):
            main(["--scale", "0.1", "fig2a", "--qps", "8", "--clients", "2"])

    def test_bench_scale_parsing(self, monkeypatch):
        from repro.harness import bench_scale
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "")
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        assert bench_scale() == 0.1  # the floor stays
        monkeypatch.setenv("REPRO_BENCH_SCALE", "fast")
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
            bench_scale()


class TestFaultStamp:
    """Scorecards record which faults ``REPRO_FAULTS`` injected, without
    touching the run-store fingerprint."""

    def _scorecard(self, tmp_path, monkeypatch, faults_env):
        if faults_env:
            monkeypatch.setenv("REPRO_FAULTS", faults_env)
        else:
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
        out = tmp_path / ("faulty" if faults_env else "clean")
        assert not main(["--scale", "0.1", "--scorecard", str(out),
                         "fig2a", "--qps", "8", "--clients", "2"])
        return json.loads((out / "BENCH_fig2a.json").read_text())

    def test_injected_faults_are_stamped(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.obs import faults, load_scorecard
        from repro.obs.runstore import config_fingerprint
        faulty = self._scorecard(tmp_path, monkeypatch,
                                 "rnic.double_count_miss,"
                                 "bench.step_handler_cost")
        assert faulty["meta"]["faults"] == ["bench.step_handler_cost",
                                            "rnic.double_count_miss"]
        assert not faults.ACTIVE  # cleared after the command
        clean = self._scorecard(tmp_path, monkeypatch, None)
        assert "faults" not in clean["meta"]
        assert (config_fingerprint([load_scorecard(
                    str(tmp_path / "faulty" / "BENCH_fig2a.json"))])
                == config_fingerprint([load_scorecard(
                    str(tmp_path / "clean" / "BENCH_fig2a.json"))]))
