"""Objective functions: what the hunter considers "anomalous".

Each objective maps one candidate evaluation (the plain dict produced by
:func:`repro.search.runner.evaluate_point`) to a scalar score, higher =
more anomalous.  Objectives that rank by attribution need traced legs
(``needs_trace``) — the driver switches candidate evaluation to traced
mode for them so every scored candidate carries its own explanation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = ["Objective", "get_objective", "OBJECTIVES"]


@dataclass(frozen=True)
class Objective:
    """A named, optionally parameterized anomaly measure."""

    name: str
    description: str
    score: Callable[[dict], float] = field(repr=False)
    #: Evaluations must run traced (attribution shares per leg).
    needs_trace: bool = False
    #: The ``name:arg`` parameter, when the objective takes one.
    arg: Optional[str] = None

    @property
    def spec(self) -> str:
        return self.name if self.arg is None else "%s:%s" % (self.name,
                                                             self.arg)


def _tail_ratio(ev: dict) -> float:
    return float(ev.get("tail_ratio", 0.0))


def _goodput_collapse(ev: dict) -> float:
    # 0 = full retention, 1 = total collapse under congestion.
    return max(0.0, 1.0 - float(ev.get("goodput_retained", 1.0)))


def _anomaly_severity(ev: dict) -> float:
    return float(ev.get("max_anomaly_severity", 0.0))


def _attribution_shift(resource: Optional[str]) -> Callable[[dict], float]:
    def score(ev: dict) -> float:
        shifts = ev.get("shift") or []
        if resource is None:
            # Largest share gained by any resource between the legs.
            return max((row["delta"] for row in shifts), default=0.0)
        for row in shifts:
            if row["resource"] == resource:
                return float(row["delta"])
        return 0.0
    return score


def _make(name: str, arg: Optional[str]) -> Objective:
    if name == "tail_ratio":
        return Objective(
            name=name, arg=None, score=_tail_ratio,
            description="p99/p50 latency inflation of the congested leg")
    if name == "goodput_collapse":
        return Objective(
            name=name, arg=None, score=_goodput_collapse,
            description="1 - goodput retained vs the uncongested baseline")
    if name == "anomaly_severity":
        return Objective(
            name=name, arg=None, score=_anomaly_severity,
            description="max detector severity across both legs' anomalies")
    if name == "attribution_shift":
        return Objective(
            name=name, arg=arg, needs_trace=True,
            score=_attribution_shift(arg),
            description="critical-path share gained baseline->scenario"
                        + (" by %s" % arg if arg else " by any resource"))
    raise ValueError("unknown objective %r (known: %s)"
                     % (name, ", ".join(sorted(OBJECTIVES))))


#: Registered objective names -> whether they accept a ``:arg``.
OBJECTIVES: Dict[str, bool] = {
    "tail_ratio": False,
    "goodput_collapse": False,
    "anomaly_severity": False,
    "attribution_shift": True,
}


def get_objective(spec: str) -> Objective:
    """Parse ``"name"`` or ``"name:arg"`` into an :class:`Objective`."""
    name, _, arg = spec.partition(":")
    name = name.strip()
    arg = arg.strip() or None
    if name not in OBJECTIVES:
        raise ValueError("unknown objective %r (known: %s)"
                         % (name, ", ".join(sorted(OBJECTIVES))))
    if arg is not None and not OBJECTIVES[name]:
        raise ValueError("objective %r takes no argument" % name)
    return _make(name, arg)
