"""The adversarial scenario search: space/mutation/objective units and
the determinism contract.

The acceptance criterion mirrors the sweep executor's: a search at
``jobs=N`` must produce a *byte-identical* leaderboard (and JSON export)
to a serial run, because every candidate's evaluation seed derives from
the root seed and the candidate's config fingerprint — never from
evaluation order or worker assignment.  These tests pin the identity
system (fingerprints, clamping, ``Streams.child``), the mutation
kernels' always-move guarantee, objective parsing, the driver's budget
and dedup accounting, and end-to-end determinism at smoke scale.
"""

import json
import random

import pytest

from repro.harness.cli import main
from repro.harness.scorecards import scorecard_search
from repro.search import (
    BoolDim,
    FloatDim,
    IntDim,
    SearchConfig,
    SearchSpace,
    default_space,
    get_objective,
    mutate_point,
    run_search,
)
from repro.search.mutate import mutate_value
from repro.search.objectives import OBJECTIVES
from repro.search.scenarios import CURATED_SCENARIOS
from repro.sim.rand import Streams

SMOKE = "0.05"


def _tiny_space():
    """A small space whose evaluations stay cheap and collide often."""
    return SearchSpace([
        IntDim("a", 1, 4),
        FloatDim("b", 0.0, 1.0),
        BoolDim("c"),
    ])


class TestDimensions:
    def test_int_sample_and_clamp(self):
        dim = IntDim("x", 4, 16)
        rng = random.Random(1)
        assert all(4 <= dim.sample(rng) <= 16 for _ in range(50))
        assert dim.clamp(-3) == 4
        assert dim.clamp(99) == 16
        assert dim.clamp(7.6) == 8

    def test_int_log_sampling_stays_in_range(self):
        dim = IntDim("x", 64, 1024, log=True)
        rng = random.Random(2)
        values = [dim.sample(rng) for _ in range(200)]
        assert all(64 <= v <= 1024 for v in values)
        # Log sampling actually reaches the low decades, not just the
        # arithmetic middle of the range.
        assert min(values) < 128

    def test_float_clamp_rounds_to_significant_digits(self):
        dim = FloatDim("x", 0.0, 1.0)
        assert dim.clamp(0.123456789) == 0.123457
        assert dim.clamp(2.0) == 1.0

    def test_bool_samples_both_values(self):
        rng = random.Random(3)
        assert {BoolDim("x").sample(rng) for _ in range(20)} == {True, False}
        assert BoolDim("x").clamp(0) is False

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            IntDim("x", 5, 4)
        with pytest.raises(ValueError):
            IntDim("x", 0, 4, log=True)
        with pytest.raises(ValueError):
            FloatDim("x", 0.0, 1.0, log=True)


class TestSearchSpace:
    def test_sample_is_complete_and_in_domain(self):
        space = default_space()
        point = space.sample(random.Random(7))
        assert set(point) == set(space.dims)
        assert space.clamp(point) == point

    def test_clamp_rejects_unknown_and_missing_keys(self):
        space = _tiny_space()
        with pytest.raises(ValueError, match="unknown"):
            space.clamp({"a": 1, "b": 0.5, "c": True, "zzz": 1})
        with pytest.raises(ValueError, match="missing"):
            space.clamp({"a": 1})

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace([IntDim("a", 1, 2), BoolDim("a")])

    def test_fingerprint_is_canonical(self):
        space = _tiny_space()
        point = {"a": 2, "b": 0.25, "c": True}
        fp = space.fingerprint(point)
        assert len(fp) == 16
        # Key order and float spelling don't matter; values do.
        assert space.fingerprint({"c": 1, "b": 0.250000, "a": 2.2}) == fp
        assert space.fingerprint({"a": 3, "b": 0.25, "c": True}) != fp
        assert space.point_id(point) == "search/%s" % fp

    def test_fingerprint_survives_json_round_trip(self):
        space = default_space()
        point = space.sample(random.Random(11))
        thawed = json.loads(json.dumps(point))
        assert space.fingerprint(thawed) == space.fingerprint(point)


class TestMutation:
    def test_mutation_always_moves(self):
        """The driver relies on mutations changing the clamped point —
        a no-op proposal would re-fingerprint the parent and stall."""
        space = default_space()
        rng = random.Random(13)
        for name, dim in space.dims.items():
            for _ in range(25):
                value = dim.sample(rng)
                assert mutate_value(dim, value, rng) != dim.clamp(value), name

    def test_mutation_at_bounds_moves_inward(self):
        dim = IntDim("x", 1, 8)
        rng = random.Random(17)
        assert all(1 <= mutate_value(dim, 8, rng) <= 8 for _ in range(25))
        assert all(mutate_value(dim, 1, rng) != 1 for _ in range(25))

    def test_single_value_dimension_is_fixed_point(self):
        # Degenerate lo == hi: nothing to move to; must not loop or raise.
        assert mutate_value(IntDim("x", 5, 5), 5, random.Random(1)) == 5

    def test_mutate_point_changes_one_or_two_dims(self):
        space = _tiny_space()
        rng = random.Random(19)
        parent = space.sample(rng)
        for _ in range(30):
            child = mutate_point(space, parent, rng)
            changed = [k for k in parent if child[k] != parent[k]]
            assert 1 <= len(changed) <= 2

    def test_mutate_point_is_seed_deterministic(self):
        space = default_space()
        parent = space.sample(random.Random(23))
        a = mutate_point(space, parent, random.Random(99))
        b = mutate_point(space, parent, random.Random(99))
        assert a == b


class TestObjectives:
    def test_parse_plain_and_parameterized(self):
        assert get_objective("tail_ratio").spec == "tail_ratio"
        obj = get_objective("attribution_shift:pfc_pause")
        assert obj.needs_trace and obj.arg == "pfc_pause"
        assert obj.spec == "attribution_shift:pfc_pause"

    def test_unknown_name_and_stray_arg_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            get_objective("zzz")
        with pytest.raises(ValueError, match="takes no argument"):
            get_objective("tail_ratio:oops")

    def test_scores_from_evaluation_dict(self):
        ev = {"tail_ratio": 12.5, "goodput_retained": 0.25,
              "max_anomaly_severity": 3.0,
              "shift": [{"resource": "pfc_pause", "delta": 0.7},
                        {"resource": "cpu", "delta": 0.1}]}
        assert get_objective("tail_ratio").score(ev) == 12.5
        assert get_objective("goodput_collapse").score(ev) == 0.75
        assert get_objective("anomaly_severity").score(ev) == 3.0
        assert get_objective("attribution_shift").score(ev) == 0.7
        assert get_objective("attribution_shift:cpu").score(ev) == 0.1
        assert get_objective("attribution_shift:zzz").score(ev) == 0.0

    def test_collapse_clips_at_zero(self):
        # A scenario *faster* than its baseline is not a collapse.
        assert get_objective("goodput_collapse").score(
            {"goodput_retained": 1.3}) == 0.0

    def test_registry_is_complete(self):
        assert {get_objective(name).name for name in OBJECTIVES} == {
            "tail_ratio", "goodput_collapse", "anomaly_severity",
            "attribution_shift"}


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


class TestSearchDriver:
    @pytest.fixture(autouse=True)
    def _smoke_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)

    def test_budget_and_leaderboard_shape(self):
        cfg = SearchConfig(objective="tail_ratio", budget=5, seed=7,
                           elites=2)
        result = run_search(cfg)
        assert result.n_evals == 5
        assert len(result.leaderboard) == 5
        scores = [e["score"] for e in result.leaderboard]
        assert scores == sorted(scores, reverse=True)
        fps = [e["fingerprint"] for e in result.leaderboard]
        assert len(set(fps)) == 5
        assert result.leaderboard[0]["fingerprint"] == fps[0]
        assert result.history  # at least one climb generation ran

    def test_search_is_jobs_invariant(self):
        """The acceptance criterion: byte-identical output serial vs
        parallel (dedup counts may differ only through scheduling — and
        they must not, because proposals are order-independent)."""
        dumps = []
        for jobs in (1, 2):
            cfg = SearchConfig(objective="tail_ratio", budget=6, seed=7,
                               jobs=jobs, elites=2)
            dumps.append(json.dumps(run_search(cfg).to_dict(),
                                    sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_distinct_seeds_explore_differently(self):
        boards = []
        for seed in (7, 8):
            cfg = SearchConfig(objective="tail_ratio", budget=4, seed=seed,
                               elites=2)
            boards.append([e["fingerprint"]
                           for e in run_search(cfg).leaderboard])
        assert boards[0] != boards[1]

    def test_tiny_space_dedups_instead_of_looping(self):
        """A space with few distinct points cannot fill a large budget;
        the driver must terminate with dedup hits, not spin forever.
        (Points must still be complete default-space vectors — the
        evaluator clamps against the real space — so this narrows every
        dimension to a single value except the two fabric booleans,
        leaving exactly 4 distinct candidates.)"""
        fixed = {
            "n_senders": 4, "threads_per_client": 2, "outstanding": 1,
            "req_size": 64, "large_size": 1024, "large_fraction": 0.0,
            "zipf_theta": 0.0, "handler_ns": 50.0,
            "qp_cache_entries": 256, "credit_batch": 16,
            "qps_per_handle": 1, "buffer_bytes": 65536,
            "dcqcn_rate_ai_gbps": 10.0, "dcqcn_min_rate_gbps": 1.0,
        }
        dims = []
        for name, value in fixed.items():
            if isinstance(value, int):
                dims.append(IntDim(name, value, value))
            else:
                dims.append(FloatDim(name, value, value))
        dims.extend([BoolDim("dcqcn"), BoolDim("pfc")])
        cfg = SearchConfig(objective="tail_ratio", budget=10, seed=7,
                           elites=2, space=SearchSpace(dims))
        result = run_search(cfg)
        assert result.n_evals <= 4  # |space| = 4
        assert result.n_dedup > 0

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            run_search(SearchConfig(budget=0))


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
        space = default_space()
        for scenario in CURATED_SCENARIOS.values():
            # Frozen points are complete, in-domain space vectors: the
            # clamp is the identity, so the committed baseline pins the
            # exact configuration the search evaluated.
            assert space.clamp(scenario.point) == scenario.point
            assert scenario.objective
            assert scenario.description


class TestSearchCli:
    def test_cli_json_identical_across_jobs(self, tmp_path, capsys,
                                            monkeypatch):
        # Each side runs in its own directory with the same relative
        # --json name, so stdout (which echoes the path) compares too.
        dumps, outs = [], []
        for jobs in (1, 2):
            workdir = tmp_path / ("jobs%d" % jobs)
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            main(["--scale", SMOKE, "--jobs", str(jobs),
                  "search", "--budget", "4", "--seed", "7",
                  "--elites", "2", "--explain-top", "1",
                  "--json", "search.json"])
            outs.append(capsys.readouterr().out)
            dumps.append((workdir / "search.json").read_bytes())
        assert outs[0] == outs[1]
        assert dumps[0] == dumps[1]
        payload = json.loads(dumps[0])
        assert payload["search"]["n_evals"] == 4
        board = payload["search"]["leaderboard"]
        assert len(board) == 4
        fingerprints = [entry["fingerprint"] for entry in board]
        assert len(set(fingerprints)) == len(board), "duplicate fingerprints"
        scores = [entry["score"] for entry in board]
        assert scores == sorted(scores, reverse=True)
        assert payload["explanations"]
        for detail in payload["explanations"]:
            assert detail["shift"], "explained entry lacks a shift table"

    def test_cli_export_scenario_writes_scorecard(self, tmp_path, capsys):
        rc = main(["--scale", SMOKE, "--scorecard", str(tmp_path),
                   "search", "--budget", "3", "--seed", "7",
                   "--elites", "2", "--explain-top", "0",
                   "--export-scenario", "unit_find:1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote scenario scorecard" in out
        written = list(tmp_path.glob("BENCH_search_unit_find.json"))
        assert len(written) == 1
        data = json.loads(written[0].read_text())
        assert data["meta"]["search"]["fingerprint"]

    @pytest.mark.parametrize("spec", ["oops:9", "x:abc", ":1"])
    def test_cli_export_rank_out_of_range(self, tmp_path, capsys, spec):
        argv = ["--scale", SMOKE, "--scorecard", str(tmp_path),
                "search", "--budget", "2", "--seed", "7",
                "--explain-top", "0", "--export-scenario", spec]
        if spec == "oops:9":
            # A well-formed spec is checked against the leaderboard
            # after the search.
            assert main(argv) == 1
            assert "out of range" in capsys.readouterr().out
        else:
            # A malformed one stops the parser before any search runs.
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert "bad scenario spec %r" % spec in captured.err
            assert captured.out == ""
        assert not list(tmp_path.glob("BENCH_search_*.json"))
