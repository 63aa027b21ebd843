"""The budgeted search loop: random warmup -> hill-climb with annealing.

The driver is deliberately simple — Collie's insight is that *any*
guided search beats hand-picked benchmarks once the objective measures
anomaly — but it is rigorously deterministic:

* every candidate's evaluation seed derives from the root seed and the
  candidate's config fingerprint (``Streams.child``), never from
  evaluation order or worker assignment;
* mutation and acceptance randomness come from named streams keyed by
  (generation, slot), so the proposal sequence is a pure function of
  (seed, budget, objective, space);
* the leaderboard is sorted by (score desc, fingerprint) — a total
  order with no float ties left to timing.

Candidate evaluations fan across the multiprocessing sweep executor in
generations; the budget counts *unique* evaluations (duplicates by
fingerprint are served from the in-run cache).  Evaluations that ran
under a telemetry carry their metrics states; the driver folds them in
evaluation order into :attr:`SearchResult.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..harness.parallel import SweepPoint, run_sweep
from ..obs import Registry
from ..sim import Streams
from .mutate import mutate_point
from .objectives import Objective, get_objective
from .runner import evaluate_point
from .space import SearchSpace, default_space

__all__ = ["SearchConfig", "SearchResult", "run_search"]

#: Simulated-annealing acceptance of worse children: the relative
#: temperature is ``ANNEAL_T0 * ANNEAL_DECAY**(generation - 1)``.
ANNEAL_T0 = 0.05
ANNEAL_DECAY = 0.7


@dataclass
class SearchConfig:
    """Knobs of one search run."""

    objective: str = "tail_ratio"
    budget: int = 24
    seed: int = 7
    jobs: int = 1
    #: Random candidates before hill-climbing starts (0 = auto: a third
    #: of the budget, at least the elite count).
    warmup: int = 0
    #: Frontier slots the climb mutates each generation.
    elites: int = 4
    space: Optional[SearchSpace] = None

    def resolved_space(self) -> SearchSpace:
        return self.space if self.space is not None else default_space()

    def resolved_warmup(self) -> int:
        if self.warmup >= 1:
            return min(self.warmup, self.budget)
        return min(self.budget, max(self.elites, self.budget // 3))

    def search_id(self) -> str:
        slug = self.objective.replace(":", "-").replace("/", "-")
        return "search-%s-s%d-b%d" % (slug, self.seed, self.budget)


@dataclass
class SearchResult:
    """Everything one search run produced, JSON-safe."""

    search_id: str
    objective: str
    seed: int
    budget: int
    n_evals: int
    n_dedup: int
    #: Evaluations sorted by (score desc, fingerprint) — rank 1 first.
    leaderboard: List[dict] = field(default_factory=list)
    #: Per-generation progress rows.
    history: List[dict] = field(default_factory=list)
    space: Dict = field(default_factory=dict)
    #: The evaluations' metrics states folded in evaluation order (a
    #: :meth:`repro.obs.Registry.export_state` state); None when none
    #: ran under a telemetry.  Not part of :meth:`to_dict`.
    metrics: Optional[dict] = None

    @property
    def best(self) -> Optional[dict]:
        return self.leaderboard[0] if self.leaderboard else None

    def to_dict(self) -> dict:
        return {
            "search_id": self.search_id,
            "objective": self.objective,
            "seed": self.seed,
            "budget": self.budget,
            "n_evals": self.n_evals,
            "n_dedup": self.n_dedup,
            "leaderboard": self.leaderboard,
            "history": self.history,
            "space": self.space,
        }


def run_search(cfg: SearchConfig, progress=None) -> SearchResult:
    """Run one budgeted search; see the module docstring for the
    determinism contract.  ``progress`` (optional callable taking a
    string) receives one line per generation."""
    space = cfg.resolved_space()
    objective: Objective = get_objective(cfg.objective)
    if cfg.budget < 1:
        raise ValueError("budget must be >= 1")

    evaluated: Dict[str, dict] = {}
    metrics_states: List[dict] = []
    dedup_hits = [0]

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def evaluate_batch(points: List[dict]) -> None:
        """Evaluate the fingerprint-fresh subset of ``points`` across
        the executor and score them into ``evaluated``."""
        fresh: Dict[str, dict] = {}
        for point in points:
            fp = space.fingerprint(point)
            if fp in evaluated or fp in fresh:
                dedup_hits[0] += 1
                continue
            if len(evaluated) + len(fresh) >= cfg.budget:
                break
            fresh[fp] = space.clamp(point)
        if not fresh:
            return
        sweep = [SweepPoint("search/%s" % fp, evaluate_point, (point,),
                            {"seed": cfg.seed,
                             "trace": objective.needs_trace})
                 for fp, point in fresh.items()]
        for _key, evaluation in run_sweep(sweep, cfg.jobs):
            if "metrics" in evaluation:
                metrics_states.append(evaluation.pop("metrics"))
            evaluation["score"] = round(objective.score(evaluation), 6)
            evaluated[evaluation["fingerprint"]] = evaluation

    def ranked() -> List[dict]:
        return sorted(evaluated.values(),
                      key=lambda ev: (-ev["score"], ev["fingerprint"]))

    # Random warmup: sample until enough unique fingerprints (bounded
    # attempts — a tiny space may not have that many distinct points).
    warm_rng = Streams(cfg.seed).stream("search/warmup")
    n_warm = cfg.resolved_warmup()
    warm_points: List[dict] = []
    seen = set()
    for _attempt in range(n_warm * 25):
        if len(warm_points) >= n_warm:
            break
        point = space.sample(warm_rng)
        fp = space.fingerprint(point)
        if fp in seen:
            continue
        seen.add(fp)
        warm_points.append(point)
    evaluate_batch(warm_points)
    note("warmup: %d/%d evaluated" % (len(evaluated), cfg.budget))

    history: List[dict] = []
    frontier = [ev["fingerprint"] for ev in ranked()[:cfg.elites]]
    generation = 0
    stalled = 0
    max_generations = 50 + 10 * cfg.budget
    while len(evaluated) < cfg.budget and generation < max_generations:
        generation += 1
        before = len(evaluated)
        children: List[dict] = []
        parents: List[str] = []
        for slot, parent_fp in enumerate(frontier):
            if before + len(children) >= cfg.budget:
                break
            rng = Streams(cfg.seed).stream(
                "search/mutate/g%d/i%d" % (generation, slot))
            children.append(mutate_point(space,
                                         evaluated[parent_fp]["point"], rng))
            parents.append(parent_fp)
        did_refill = stalled >= 2
        if did_refill:
            # The climb keeps proposing already-seen points: re-seed
            # exploration with fresh random candidates.
            refill_rng = Streams(cfg.seed).stream(
                "search/refill/g%d" % generation)
            room = cfg.budget - before - len(children)
            children.extend(space.sample(refill_rng)
                            for _ in range(max(0, min(room, cfg.elites))))
        evaluate_batch(children)

        # Acceptance per frontier slot: climb uphill, annealed downhill.
        accept_rng = Streams(cfg.seed).stream("search/accept/g%d" % generation)
        temperature = ANNEAL_T0 * ANNEAL_DECAY ** (generation - 1)
        for slot, parent_fp in enumerate(parents):
            child_fp = space.fingerprint(children[slot])
            child = evaluated.get(child_fp)
            if child is None:
                continue
            parent_score = evaluated[parent_fp]["score"]
            delta = child["score"] - parent_score
            accept = delta >= 0
            if not accept and temperature > 0:
                rel = delta / (temperature * max(abs(parent_score), 1e-9))
                accept = accept_rng.random() < math.exp(rel)
            if accept:
                frontier[slot] = child_fp
        stalled = stalled + 1 if len(evaluated) == before else 0
        if did_refill and len(evaluated) > before:
            # A refill broke the stall; restart the climb from the
            # global elites so the fresh blood can be exploited.
            frontier = [ev["fingerprint"] for ev in ranked()[:cfg.elites]]
        board = ranked()
        history.append({
            "generation": generation,
            "evals": len(evaluated),
            "best_score": board[0]["score"] if board else 0.0,
            "best_fingerprint": board[0]["fingerprint"] if board else "",
        })
        note("gen %d: %d/%d evaluated, best %.4g"
             % (generation, len(evaluated), cfg.budget,
                board[0]["score"] if board else 0.0))

    return SearchResult(
        search_id=cfg.search_id(),
        objective=objective.spec,
        seed=cfg.seed,
        budget=cfg.budget,
        n_evals=len(evaluated),
        n_dedup=dedup_hits[0],
        leaderboard=ranked(),
        history=history,
        space=space.to_dict(),
        metrics=(Registry.merged(metrics_states).export_state()
                 if metrics_states else None),
    )
