"""Adversarial scenario search: a Collie-style anomaly hunter.

Collie (PAPERS.md) found RDMA performance anomalies by *searching* the
workload/config space on real hardware.  This package does the same over
the simulator: a typed search space (:mod:`.space`), anomaly-seeking
objectives computed from run results (:mod:`.objectives`), a seeded and
budgeted mutation search that fans evaluations across the parallel sweep
executor (:mod:`.mutate`, :mod:`.driver`), and a reporter that joins
every retained candidate to its critical-path attribution shift and
anomaly records (:mod:`.report`).  Found cliffs are frozen as curated
scenarios (:mod:`.scenarios`) and gated in CI like any paper figure.

Determinism contract: for a fixed (seed, budget, objective, space) the
search emits a byte-identical leaderboard regardless of ``--jobs``; each
candidate's randomness derives from ``Streams(seed).child(point_id)``
where the point id is the candidate's config fingerprint.
"""

from .space import (
    BoolDim,
    FloatDim,
    IntDim,
    SearchSpace,
    default_space,
)
from .runner import ScenarioConfig, evaluate_point, run_scenario_leg
from .objectives import Objective, get_objective, list_objectives
from .mutate import mutate_point
from .driver import SearchConfig, SearchResult, run_search
from .report import explain_entry, format_entry, leaderboard_rows
from .scenarios import CURATED_SCENARIOS, curated_evaluation

__all__ = [
    "BoolDim",
    "FloatDim",
    "IntDim",
    "SearchSpace",
    "default_space",
    "ScenarioConfig",
    "evaluate_point",
    "run_scenario_leg",
    "Objective",
    "get_objective",
    "list_objectives",
    "mutate_point",
    "SearchConfig",
    "SearchResult",
    "run_search",
    "explain_entry",
    "format_entry",
    "leaderboard_rows",
    "CURATED_SCENARIOS",
    "curated_evaluation",
]
