"""Search-discovered anomaly scenarios, replayed as gates.

An adversarial search over workload/config points once hunted for
anomalies, in the manner of Collie (PAPERS.md).  Its two finds worth
keeping are frozen in :mod:`.scenarios` (provenance in
``docs/search.md``); :func:`.runner.evaluate_point` replays each one,
traced and explained, and ``benchmarks/test_ext_search.py`` gates the
result against its committed baseline like any paper figure.
"""

from .runner import ScenarioConfig, evaluate_point, run_scenario_leg
from .scenarios import CURATED_SCENARIOS

__all__ = [
    "ScenarioConfig",
    "evaluate_point",
    "run_scenario_leg",
    "CURATED_SCENARIOS",
]
