"""Paper-fidelity scorecards.

A :class:`Scorecard` condenses one benchmark figure into a small JSON
document: the headline metrics (throughput at the knee, collapse ratio,
coalescing crossover, ...) plus boolean *shape checks* asserting the
qualitative behaviour the paper reports (Fig. 2a's cliff past the QP
cache, Fig. 10's crossover under QP contention, and so on).

Scorecards are written as ``BENCH_<figure>.json`` so a run's fidelity is
diffable and machine-comparable: :mod:`repro.obs.benchstore` compares a
fresh directory of scorecards against committed baselines and gates CI
on regressions beyond per-metric tolerances.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .export import write_atomic

__all__ = [
    "Metric",
    "Check",
    "Scorecard",
    "load_scorecard",
    "scorecard_filename",
]

#: Regression directions a metric can declare.  "higher" means larger is
#: better (throughput); "lower" means smaller is better (latency);
#: "equal" means any drift beyond tolerance is a regression (determinism
#: counters); "info" is recorded but never gated.
_BETTER = ("higher", "lower", "equal", "info")


@dataclass
class Metric:
    """One gated number in a scorecard."""

    name: str
    value: float
    better: str = "higher"
    #: Relative tolerance the bench store allows before flagging.
    rtol: float = 0.05
    #: Absolute tolerance floor (for metrics that hover near zero).
    atol: float = 0.0
    unit: str = ""

    def __post_init__(self):
        if self.better not in _BETTER:
            raise ValueError("better must be one of %s" % (_BETTER,))
        if self.rtol < 0 or self.atol < 0:
            raise ValueError("tolerances must be non-negative")


@dataclass
class Check:
    """One boolean shape assertion (e.g. 'throughput collapses past the
    QP-cache size')."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class Scorecard:
    """All fidelity evidence for one figure of the paper."""

    figure: str
    title: str = ""
    metrics: List[Metric] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    #: Run conditions that must match for a comparison to be meaningful
    #: (notably ``bench_scale``); extra keys are carried verbatim.
    meta: Dict[str, Any] = field(default_factory=dict)

    def add_metric(self, name: str, value: float, better: str = "higher",
                   rtol: float = 0.05, atol: float = 0.0,
                   unit: str = "") -> Metric:
        m = Metric(name=name, value=float(value), better=better,
                   rtol=rtol, atol=atol, unit=unit)
        self.metrics.append(m)
        return m

    def add_check(self, name: str, passed: bool, detail: str = "") -> Check:
        c = Check(name=name, passed=bool(passed), detail=detail)
        self.checks.append(c)
        return c

    @property
    def passed(self) -> bool:
        """True when every shape check holds."""
        return all(c.passed for c in self.checks)

    def metric(self, name: str) -> Optional[Metric]:
        for m in self.metrics:
            if m.name == name:
                return m
        return None

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "title": self.title,
            "passed": self.passed,
            "metrics": [vars(m) for m in self.metrics],
            "checks": [vars(c) for c in self.checks],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scorecard":
        sc = cls(figure=data["figure"], title=data.get("title", ""),
                 meta=dict(data.get("meta", {})))
        for m in data.get("metrics", []):
            sc.metrics.append(Metric(
                name=m["name"], value=m["value"],
                better=m.get("better", "higher"),
                rtol=m.get("rtol", 0.05), atol=m.get("atol", 0.0),
                unit=m.get("unit", "")))
        for c in data.get("checks", []):
            sc.checks.append(Check(name=c["name"], passed=c["passed"],
                                   detail=c.get("detail", "")))
        return sc

    def write(self, directory: str) -> str:
        """Serialize to ``<directory>/BENCH_<figure>.json``; returns the
        path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, scorecard_filename(self.figure))
        write_atomic(path, json.dumps(self.to_dict(), indent=2,
                                      sort_keys=True) + "\n")
        return path

    def format(self) -> str:
        lines = ["scorecard %s (%s): %s"
                 % (self.figure, self.title or "untitled",
                    "PASS" if self.passed else "FAIL")]
        for m in self.metrics:
            lines.append("  %-36s %12.4f %s" % (m.name, m.value, m.unit))
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append("  [%s] %s%s" % (
                mark, c.name, (" — " + c.detail) if c.detail else ""))
        return "\n".join(lines)


def scorecard_filename(figure: str) -> str:
    """Canonical on-disk name for a figure's scorecard."""
    safe = "".join(ch if (ch.isalnum() or ch in "-_") else "_"
                   for ch in figure)
    return "BENCH_%s.json" % safe


def load_scorecard(path: str) -> Scorecard:
    """Read a scorecard back from a ``BENCH_*.json`` file."""
    with open(path) as fh:
        return Scorecard.from_dict(json.load(fh))
