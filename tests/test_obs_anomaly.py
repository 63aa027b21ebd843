"""Anomaly detectors and attribution-diff explanations.

Unit half: the three detector families on hand-built series — cliffs
(largest relative step), knees (max distance to the endpoint chord),
changepoints (binary segmentation over windowed means) and counter
bursts (rolling baseline) — plus the explain join.  End-to-end half: the manufactured ``bench.step_handler_cost``
fault produces changepoints a clean run does not have, the incast
runner's timeline carries switch-counter sources, and the detected set
is a pure function of its input (byte-identical on repetition).
"""

import json

import pytest

from repro.harness.incastbench import IncastConfig, run_incast_flock
from repro.harness.microbench import MicrobenchConfig, run_flock
from repro.obs.anomaly import (
    Anomaly,
    detect_changepoints,
    detect_cliffs,
    detect_counter_bursts,
    detect_knees,
    detect_run_anomalies,
    detect_sweep_anomalies,
    severity_label,
)
from repro.obs.explain import (
    explain_between,
    explain_changepoint,
    explain_sweep_anomalies,
    format_explanation,
    shift_table,
    top_shift,
)

# Fig. 2a's shape: ramp, plateau, collapse past the QP cache.
FIG2A_XS = [22.0, 176.0, 704.0, 2816.0]
FIG2A_YS = [30.0, 42.0, 41.0, 5.0]


class TestCliffs:
    def test_fig2a_collapse_is_a_drop_cliff(self):
        out = detect_cliffs(FIG2A_XS, FIG2A_YS, metric="mops")
        drops = [a for a in out if a.direction == "drop"]
        assert len(drops) == 1
        cliff = drops[0]
        assert cliff.kind == "cliff"
        assert cliff.x == 2816.0
        assert cliff.span == (704.0, 2816.0)
        assert cliff.severity == pytest.approx((41.0 - 5.0) / 41.0, abs=1e-6)

    def test_one_cliff_per_direction(self):
        # Two drops: only the larger one is reported.
        out = detect_cliffs([1, 2, 3, 4], [100.0, 60.0, 58.0, 10.0])
        assert len(out) == 1
        assert out[0].x == 4

    def test_flat_curve_is_silent(self):
        assert detect_cliffs([1, 2, 3], [10.0, 10.1, 9.9]) == []

    def test_min_rel_step_gates(self):
        ys = [10.0, 8.5, 8.0]  # largest step 15% < default 25%
        assert detect_cliffs([1, 2, 3], ys) == []
        assert detect_cliffs([1, 2, 3], ys, min_rel_step=0.10)

    def test_rise_direction(self):
        out = detect_cliffs([1, 2], [10.0, 40.0])
        assert out[0].direction == "rise"
        assert "jumps" in out[0].detail

    def test_short_curves_are_silent(self):
        # Fewer than two points means no adjacent pair to compare.
        assert detect_cliffs([], []) == []
        assert detect_cliffs([1], [10.0]) == []

    def test_all_zero_levels_are_skipped(self):
        # A 0 -> 0 step has no local level to be relative to; it must
        # not divide by zero or fabricate a 100% cliff.
        assert detect_cliffs([1, 2, 3], [0.0, 0.0, 0.0]) == []

    def test_zero_to_nonzero_is_a_full_cliff(self):
        out = detect_cliffs([1, 2], [0.0, 8.0])
        assert len(out) == 1
        assert out[0].direction == "rise"
        assert out[0].severity == pytest.approx(1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            detect_cliffs([1, 2, 3], [1.0, 2.0])


class TestKnees:
    def test_saturation_knee_above_chord(self):
        out = detect_knees(FIG2A_XS, FIG2A_YS, metric="mops")
        assert len(out) == 1
        knee = out[0]
        assert knee.kind == "knee"
        assert knee.direction == "rise"
        # The plateau points sit far above the 30 -> 5 endpoint chord;
        # index-space normalization keeps geometric x spacing irrelevant.
        assert knee.x in (176.0, 704.0)

    def test_needs_three_points(self):
        # 0, 1 and 2 points: no interior point exists to bend at.
        assert detect_knees([], []) == []
        assert detect_knees([1], [1.0]) == []
        assert detect_knees([1, 2], [1.0, 2.0]) == []

    def test_three_point_bend_is_found(self):
        # The minimal curve with an interior point: sharp saturation.
        out = detect_knees([1, 2, 3], [0.0, 10.0, 10.0])
        assert len(out) == 1
        assert out[0].x == 2
        assert out[0].direction == "rise"

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            detect_knees([1, 2], [1.0, 2.0, 3.0])

    def test_flat_curve_has_no_knee(self):
        assert detect_knees([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0]) == []

    def test_straight_line_has_no_knee(self):
        assert detect_knees([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0]) == []

    def test_sweep_wrapper_orders_stably(self):
        out = detect_sweep_anomalies(FIG2A_XS, FIG2A_YS, metric="mops",
                                     series="rc-read", figure="fig2a")
        assert [a.kind for a in out] == sorted(a.kind for a in out)
        assert all(a.figure == "fig2a" for a in out)


class TestChangepoints:
    def test_clean_series_is_silent(self):
        assert detect_changepoints([10.0, 10.2, 9.9, 10.1, 10.0, 9.8]) == []

    def test_step_detected_at_first_new_window(self):
        out = detect_changepoints([10.0, 10.0, 10.0, 10.0,
                                   40.0, 40.0, 40.0, 40.0])
        assert len(out) == 1
        k, pre, post, score = out[0]
        assert k == 4
        assert pre == pytest.approx(10.0)
        assert post == pytest.approx(40.0)
        assert score >= 3.0

    def test_small_relative_shift_gated(self):
        # Statistically crisp (zero noise) but only a 5% level change.
        assert detect_changepoints([100.0] * 4 + [105.0] * 4) == []

    def test_noisy_shift_gated_by_score(self):
        # Shift comparable to in-segment scatter: not a level change.
        assert detect_changepoints([5.0, 15.0, 4.0, 16.0,
                                    9.0, 19.0, 8.0, 20.0]) == []

    def test_two_steps_found_recursively(self):
        out = detect_changepoints([10.0] * 4 + [40.0] * 4 + [90.0] * 4)
        assert [k for k, _p, _q, _s in out] == [4, 8]

    def test_max_splits_bounds_recursion(self):
        series = []
        for level in (10.0, 40.0, 90.0, 200.0, 500.0, 1200.0):
            series += [level] * 4
        out = detect_changepoints(series, max_splits=2)
        assert len(out) == 2


class TestCounterBursts:
    def test_silent_then_burst(self):
        out = detect_counter_bursts([0.0, 0.0, 0.0, 50.0])
        assert out == [(3, 50.0, 0.0)]

    def test_below_abs_floor_is_silent(self):
        assert detect_counter_bursts([0.0, 0.0, 5.0]) == []

    def test_steady_counter_never_bursts(self):
        assert detect_counter_bursts([100.0, 110.0, 95.0, 105.0]) == []

    def test_factor_relative_to_rolling_baseline(self):
        assert detect_counter_bursts([10.0, 10.0, 10.0, 45.0]) == [
            (3, 45.0, 10.0)]
        assert detect_counter_bursts([10.0, 10.0, 10.0, 35.0]) == []


class TestAnomalyRecord:
    def test_severity_bands(self):
        assert severity_label(0.1) == "mild"
        assert severity_label(0.3) == "moderate"
        assert severity_label(0.9) == "severe"

    def test_dict_roundtrip(self):
        a = [c for c in detect_cliffs(FIG2A_XS, FIG2A_YS, metric="mops",
                                      series="rc-read", figure="fig2a")
             if c.direction == "drop"][0]
        data = a.to_dict()
        assert data["severity_band"] == "severe"
        assert Anomaly.from_dict(data).to_dict() == data
        json.dumps(data)  # JSON-safe


def make_slo(p99s, goodputs=None, counters=None, window_ns=100.0):
    """A hand-built SloTimeline.report() dict."""
    rows = []
    for i, p99 in enumerate(p99s):
        row = {"window": i, "t0_ns": i * window_ns,
               "t1_ns": (i + 1) * window_ns, "ops": 100,
               "goodput_mops": goodputs[i] if goodputs else 1.0,
               "p50_us": 1.0, "p99_us": p99, "p999_us": p99}
        if counters is not None:
            row["counters"] = {k: v[i] for k, v in counters.items()}
        rows.append(row)
    return {"window_ns": window_ns, "t0_ns": 0.0,
            "t1_ns": len(p99s) * window_ns, "windows": rows,
            "violations": []}


class TestRunAnomalies:
    def test_none_slo_yields_empty(self):
        assert detect_run_anomalies(None) == []

    def test_p99_step_becomes_changepoint_with_window_span(self):
        slo = make_slo([10.0, 10.0, 10.0, 10.0, 40.0, 40.0, 40.0, 40.0])
        out = detect_run_anomalies(slo, label="flock")
        cps = [a for a in out if a["kind"] == "changepoint"
               and a["metric"] == "p99_us"]
        assert len(cps) == 1
        assert cps[0]["x"] == 4.0
        assert cps[0]["span"] == [400.0, 500.0]
        assert cps[0]["direction"] == "rise"
        assert cps[0]["series"] == "flock"

    def test_empty_windows_skipped_and_ids_mapped_back(self):
        slo = make_slo([10.0, None, 10.0, 10.0, None,
                        40.0, 40.0, 40.0, 40.0])
        out = detect_run_anomalies(slo)
        cps = [a for a in out if a["metric"] == "p99_us"]
        assert cps and cps[0]["x"] == 5.0  # real window id, not index 3

    def test_counter_burst_detected(self):
        slo = make_slo([10.0] * 6,
                       counters={"ecn_marks": [0, 0, 0, 64, 0, 0]})
        out = detect_run_anomalies(slo)
        bursts = [a for a in out if a["kind"] == "counter_burst"]
        assert len(bursts) == 1
        assert bursts[0]["metric"] == "ecn_marks"
        assert bursts[0]["x"] == 3.0

    def test_detection_is_pure(self):
        slo = make_slo([10.0] * 4 + [40.0] * 4,
                       counters={"drops": [0, 0, 0, 0, 30, 0, 0, 0]})
        a = json.dumps(detect_run_anomalies(slo, label="x"), sort_keys=True)
        b = json.dumps(detect_run_anomalies(slo, label="x"), sort_keys=True)
        assert a == b


class TestExplain:
    BLOCKS = {
        "rc-read qps=704": {
            "paths": 10,
            "shares": {"pcie_stall": 0.04, "nic_throttle": 0.76,
                       "propagation": 0.20},
            "what_if": {"pcie_stall": 1.1, "nic_throttle": 3.0,
                        "propagation": 1.2},
        },
        "rc-read qps=2816": {
            "paths": 10,
            "shares": {"pcie_stall": 0.61, "nic_throttle": 0.30,
                       "propagation": 0.09},
            "what_if": {"pcie_stall": 2.5, "nic_throttle": 1.4,
                        "propagation": 1.1},
        },
    }

    def cliff(self):
        return [c for c in detect_cliffs(FIG2A_XS, FIG2A_YS, metric="mops",
                                         series="rc-read", figure="fig2a")
                if c.direction == "drop"][0].to_dict()

    def test_shift_table_ranks_by_gain(self):
        rows = shift_table(self.BLOCKS["rc-read qps=704"]["shares"],
                           self.BLOCKS["rc-read qps=2816"]["shares"])
        assert rows[0]["resource"] == "pcie_stall"
        assert rows[0]["delta"] == pytest.approx(0.57)
        assert top_shift(rows) == "pcie_stall"

    def test_top_shift_none_when_nothing_gained(self):
        shares = {"pcie_stall": 0.5, "nic_throttle": 0.5}
        assert top_shift(shift_table(shares, shares)) is None

    def test_explain_between_joins_what_if(self):
        exp = explain_between(self.cliff(), "rc-read qps=704",
                              "rc-read qps=2816", self.BLOCKS)
        assert exp.top_resource == "pcie_stall"
        assert exp.what_if_bound == 2.5
        assert not exp.note

    def test_missing_block_degrades_to_note(self):
        exp = explain_between(self.cliff(), "rc-read qps=704",
                              "rc-read qps=9999", self.BLOCKS)
        assert "no attribution recorded" in exp.note
        assert exp.shifts == []

    def test_sweep_explanations_resolve_labels(self):
        labels = {"704": "rc-read qps=704", "2816": "rc-read qps=2816"}
        exps = explain_sweep_anomalies([self.cliff()], self.BLOCKS, labels)
        assert len(exps) == 1
        assert exps[0].pre_label == "rc-read qps=704"
        assert exps[0].post_label == "rc-read qps=2816"
        assert exps[0].top_resource == "pcie_stall"

    def test_changepoint_without_pre_paths_is_partial(self):
        anomaly = {"kind": "changepoint", "figure": "", "series": "flock",
                   "metric": "p99_us", "x": 0.0, "span": [0.0, 100.0],
                   "direction": "rise", "severity": 0.5, "detail": "",
                   "evidence": {}}
        exp = explain_changepoint(anomaly, [], label="flock")
        assert "no critical paths" in exp.note

    def test_format_explanation_renders_shift_rows(self):
        exp = explain_between(self.cliff(), "rc-read qps=704",
                              "rc-read qps=2816", self.BLOCKS)
        text = format_explanation(exp)
        assert "cliff[drop]" in text
        assert "pcie_stall" in text
        assert "4.0% ->  61.0%" in text
        assert "what-if: removing pcie_stall" in text
        assert "2.50x" in text

    def test_explanation_dict_is_json_safe(self):
        exp = explain_between(self.cliff(), "rc-read qps=704",
                              "rc-read qps=2816", self.BLOCKS)
        json.dumps(exp.to_dict())


class TestEndToEnd:
    @pytest.fixture(autouse=True)
    def _smoke_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")

    def test_step_fault_manufactures_changepoints(self, inject_fault):
        cfg = MicrobenchConfig(n_clients=4, threads_per_client=2,
                               outstanding=2)
        clean = run_flock(cfg)
        assert clean.anomalies == []
        inject_fault("bench.step_handler_cost")
        faulty = run_flock(cfg)
        kinds = {(a["kind"], a["metric"], a["direction"])
                 for a in faulty.anomalies}
        assert ("changepoint", "p99_us", "rise") in kinds
        assert ("changepoint", "goodput_mops", "drop") in kinds
        # The manufactured shift lands mid-window (the step fires at
        # warmup + measure/2, window 4 of 8).
        p99 = [a for a in faulty.anomalies if a["metric"] == "p99_us"]
        assert all(2.0 <= a["x"] <= 6.0 for a in p99)

    def test_incast_timeline_carries_switch_counters(self):
        cfg = IncastConfig(n_senders=6, threads_per_client=4)
        result = run_incast_flock(cfg, congested=True)
        rows = result.slo["windows"]
        assert rows
        for row in rows:
            assert set(row["counters"]) == {"ecn_marks", "pfc_pauses",
                                            "switch_drops"}
            assert all(v >= 0 for v in row["counters"].values())
        # The shallow-buffer congested leg must actually mark/drop —
        # otherwise the counter sources are wired to a dead switch.
        total = sum(row["counters"]["ecn_marks"]
                    + row["counters"]["switch_drops"] for row in rows)
        assert total > 0
        # Counter-sourced anomalies (if any) reference real windows.
        for a in result.anomalies:
            if a["kind"] == "counter_burst":
                assert 0 <= a["x"] < len(rows)

    def test_uncongested_leg_has_no_counter_block(self):
        cfg = IncastConfig(n_senders=3, threads_per_client=2)
        result = run_incast_flock(cfg, congested=False)
        assert all("counters" not in row or not row["counters"]
                   for row in result.slo["windows"])
