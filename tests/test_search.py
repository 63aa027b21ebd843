"""The curated scenario replays, without simulating: the identity
system (point fingerprints, ``Streams.child``), the scorecard builder
and the frozen points themselves.

A replay's seed derives from the root seed and its point's fingerprint,
so a curated point that still hashes to its committed baseline's
fingerprint replays the exact configuration that baseline pins.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.harness.scorecards import scorecard_search
from repro.search.runner import ScenarioConfig, fingerprint
from repro.search.scenarios import CURATED_SCENARIOS
from repro.sim.rand import Streams

BASELINES = (pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
             / "baselines")

#: The point-settable fields: everything but the seed and the windows.
SCENARIO_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                   if f.name not in ("seed", "warmup_ns", "measure_ns")]


class TestChildStreamCollisions:
    def test_ten_thousand_structured_ids_do_not_collide(self):
        """The search derives one child seed per candidate fingerprint;
        with the old 32-bit mixing, ~10k ids had better-than-even odds
        of a birthday collision (two candidates sharing an RNG)."""
        root = Streams(7)
        ids = ["search/cand-%04x%012x" % (i, i * 0x9E3779B9)
               for i in range(10_000)]
        seeds = {root.child(point_id).seed for point_id in ids}
        assert len(seeds) == 10_000

    def test_child_seed_differs_across_roots(self):
        assert Streams(1).child("search/x").seed != \
            Streams(2).child("search/x").seed


class TestScorecardSearch:
    def _evaluation(self, **over):
        ev = {
            "fingerprint": "cafe0123cafe0123",
            "point": {"n_senders": 8},
            "score": 0.9,
            "baseline": {"mops": 40.0, "p99_us": 4.0},
            "scenario": {"mops": 4.0, "p99_us": 80.0},
            "goodput_retained": 0.1,
            "tail_ratio": 9.0,
            "anomalies": {"base": [], "cong": [{"kind": "changepoint"}]},
            "shift": [{"resource": "pfc_pause", "delta": 0.6,
                       "pre_share": 0.0, "post_share": 0.6},
                      {"resource": "cpu", "delta": 0.1,
                       "pre_share": 0.2, "post_share": 0.3}],
            "top_resource": "pfc_pause",
            "explanations": [{"note": "x"}],
        }
        ev.update(over)
        return ev

    def test_passing_scenario(self):
        sc = scorecard_search("unit", self._evaluation(),
                              objective="goodput_collapse",
                              expected_top_resource="pfc_pause",
                              max_goodput_retained=0.3)
        assert sc.passed, sc.format()
        names = {m["name"] for m in sc.to_dict()["metrics"]}
        assert {"baseline_mops", "scenario_mops", "goodput_retained",
                "tail_ratio", "scenario_p99_us", "score",
                "n_anomalies"} <= names
        assert sc.meta["search"]["top_resource"] == "pfc_pause"
        assert sc.meta["explanations"]

    def test_missing_anomaly_records_fail_when_expected(self):
        sc = scorecard_search(
            "unit", self._evaluation(anomalies={"base": [], "cong": []}))
        checks = {c["name"]: c["passed"] for c in sc.to_dict()["checks"]}
        assert checks["anomaly_detected"] is False
        assert not sc.passed

    def test_steady_pathology_gates_on_collapse_instead(self):
        sc = scorecard_search(
            "unit", self._evaluation(anomalies={"base": [], "cong": []}),
            expect_anomaly_records=False, max_goodput_retained=0.3)
        checks = {c["name"]: c["passed"] for c in sc.to_dict()["checks"]}
        assert "anomaly_detected" not in checks
        assert checks["goodput_collapses"] is True
        assert sc.passed

    def test_weak_shift_fails_explanation_check(self):
        sc = scorecard_search(
            "unit", self._evaluation(
                shift=[{"resource": "cpu", "delta": 0.01,
                        "pre_share": 0.2, "post_share": 0.21}],
                top_resource="cpu"))
        checks = {c["name"]: c["passed"] for c in sc.to_dict()["checks"]}
        assert checks["attribution_shift_present"] is False

    def test_expected_suspect_accepts_top3_membership(self):
        # pfc_pause is rank 2 but still a strong gainer: pathology intact.
        sc = scorecard_search(
            "unit", self._evaluation(
                shift=[{"resource": "cpu", "delta": 0.30,
                        "pre_share": 0.1, "post_share": 0.4},
                       {"resource": "pfc_pause", "delta": 0.28,
                        "pre_share": 0.0, "post_share": 0.28}],
                top_resource="cpu"),
            expected_top_resource="pfc_pause",
            max_goodput_retained=0.3)
        checks = {c["name"]: c["passed"] for c in sc.to_dict()["checks"]}
        assert checks["expected_suspect"] is True


class TestCuratedScenarios:
    def test_registry_shape(self):
        assert {"dcqcn_collapse", "pfc_pause_storm"} <= \
            set(CURATED_SCENARIOS)
        for scenario in CURATED_SCENARIOS.values():
            assert scenario.objective
            assert scenario.description

    @pytest.mark.parametrize("name", sorted(CURATED_SCENARIOS))
    def test_point_is_its_committed_identity(self, name):
        """A replay seeds itself from its point's fingerprint, so a
        point that names every scenario field once and hashes to its
        baseline's fingerprint replays the committed configuration."""
        point = CURATED_SCENARIOS[name].point
        assert sorted(point) == sorted(SCENARIO_FIELDS)
        card = json.loads((BASELINES / ("BENCH_search_%s.json" % name))
                          .read_text())
        assert fingerprint(point) == card["meta"]["search"]["fingerprint"]
        assert point == card["meta"]["search"]["point"]
