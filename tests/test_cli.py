"""The command-line experiment runner."""

import hashlib
import json

import pytest

from repro.harness import FIGURES
from repro.harness import cli
from repro.harness.cli import build_parser, main
from repro.obs import PHASES, enable


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
        ["search"],
    ])
    def test_deleted_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_scale_flag_sets_env(self, capsys):
        import os
        main(["--scale", "0.5", "list"])
        assert os.environ["REPRO_BENCH_SCALE"] == "0.5"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
                                                          capsys,
                                                          monkeypatch):
        attr = tmp_path / "incast.attr.json"
        cards = tmp_path / "scorecards"
        tels = []
        monkeypatch.setattr(cli, "enable",
                            lambda tel: tels.append(tel) or enable(tel))
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
        # Pinned: switch_queue, ecn_throttle, cq_poll, server_queue and
        # tx_port all reach this report.
        assert _sha256(attr) == (
            "8729bb46ffd108ee485b485ca8402e0396ed6b41cb7a6bb065312144d65a58be")
        card = json.loads((cards / "BENCH_ext_incast.json").read_text())
        assert card["checks"]
        assert all(c["passed"] for c in card["checks"]), card["checks"]
        # Each interval is recorded once, and the breakdown covers waits.
        (tel,) = tels
        for span in tel.spans.spans:
            assert len(set(span.phases)) == len(span.phases), span
        table = tel.breakdown()
        assert {"tx_port", "cq_poll", "nic_throttle"} <= set(table)
        assert "tx_queue" not in table
        assert set(table) <= set(PHASES)

    def test_fig2a_trace_attribution_and_folded_stacks(self, tmp_path,
                                                       capsys):
        trace = tmp_path / "fig2a.trace.json"
        attr = tmp_path / "fig2a.attr.json"
        folded = tmp_path / "fig2a.folded"
        assert main(["--scale", "0.1", "--breakdown", "--trace", str(trace),
                     "--attribution", "--attribution-json", str(attr),
                     "--critical-path", str(folded),
                     "fig2a", "--qps", "8", "704", "--clients", "2"]) == 0
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
        # Pinned: past the QP cache (704 QPs) pcie_stall and nic_throttle
        # take most of the critical path.
        assert _sha256(attr) == (
            "ebe9aa18a0c0585ba471af1b5951ffad22ed803fddc2c43f006030ab75b5fbc5")
        assert _sha256(folded) == (
            "9b860a7a2df60bc03022350533fb9582187172fe9177ab77658d73e5e7440d16")

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

    def test_explain_writes_the_sweeps_metrics(self, tmp_path, monkeypatch):
        """``--metrics`` with ``explain fig2a`` holds the explained
        sweep's metrics: each run hands them back on its result, under
        whichever telemetry traced it, so the file matches the figure
        command's.  RC reads build CQs but no FLock endpoint, so the
        two CQ histograms are the sweep's only ones."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        sweep = ["fig2a", "--qps", "8", "16", "--clients", "2"]
        explained, figure = tmp_path / "explain.json", tmp_path / "fig.json"
        assert main(["--metrics", str(explained), "explain", *sweep]) == 0
        assert main(["--metrics", str(figure), *sweep]) == 0
        snap = json.loads(explained.read_text())
        assert snap["counters"]["net.messages"] > 0
        assert sorted(snap["histograms"]) == ["verbs.cq.depth",
                                              "verbs.cq.poll_batch"]
        assert snap == json.loads(figure.read_text())

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
