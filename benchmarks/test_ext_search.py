"""Extension benchmark: search-discovered anomaly scenarios as gates.

An adversarial search once hunted the workload/config space for
anomalies (``docs/search.md``); its two finds are frozen in
``repro.search.scenarios`` and replayed here exactly as the search
evaluated them (same seed derivation, both legs, traced).  Their
committed scorecards are baselines, so every found cliff is a permanent
regression gate: a change that silently heals or deepens the pathology
— or moves its critical-path explanation to a different resource —
trips bench-compare.
"""

import pytest

from repro.harness.scorecards import scorecard_search
from repro.search.runner import evaluate_point
from repro.search.scenarios import CURATED_SCENARIOS

from bench_record import record_scorecard, record_table


@pytest.mark.parametrize("name", sorted(CURATED_SCENARIOS))
def test_ext_search_scenario(name):
    scenario = CURATED_SCENARIOS[name]
    detail = evaluate_point(scenario.point, seed=scenario.seed)
    # The baselines record the info-only score slot the search filled;
    # a replay scores nothing.
    detail["score"] = 0.0

    base, cong = detail["baseline"], detail["scenario"]
    record_table(
        "Search scenario %s (objective %s, seed %d)"
        % (name, scenario.objective, scenario.seed),
        ["leg", "Mops", "p50 us", "p99 us", "drops", "marks", "pauses"],
        [["base", base["mops"], base["median_us"], base["p99_us"],
          0, 0, 0],
         ["cong", cong["mops"], cong["median_us"], cong["p99_us"],
          cong.get("switch_drops", 0), cong.get("ecn_marks", 0),
          cong.get("pfc_pauses", 0)]])

    sc = scorecard_search(
        name, detail,
        objective=scenario.objective,
        description=scenario.description,
        expected_top_resource=scenario.expected_top_resource,
        expect_anomaly_records=scenario.expect_anomaly_records,
        max_goodput_retained=scenario.max_goodput_retained)
    record_scorecard(sc)
    assert sc.passed, sc.format()

    # The pathology is real: the congested leg collapsed and the
    # explanation is non-trivial (some resource gained >= 5% share).
    if scenario.max_goodput_retained is not None:
        assert detail["goodput_retained"] <= scenario.max_goodput_retained
    assert detail["shift"] and detail["shift"][0]["delta"] >= 0.05
    if scenario.expected_top_resource is not None:
        gainers = [row["resource"] for row in detail["shift"][:3]
                   if row["delta"] >= 0.05]
        assert scenario.expected_top_resource in gainers
