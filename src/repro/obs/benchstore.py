"""The bench store: regression gating over committed scorecards.

``benchmarks/baselines/`` holds one committed ``BENCH_<figure>.json``
per benchmark figure.  After a fresh benchmark run writes its own
scorecards, :func:`compare_dirs` matches them up by figure and flags:

* a gated metric drifting beyond its baseline tolerance in the *worse*
  direction ("higher"-is-better metrics may only fall so far, "lower"
  only rise, "equal" may not move at all);
* a shape check that held in the baseline but fails now;
* a baseline figure the run did not produce, a gated metric missing
  from the run's scorecard, a check the run emits that the baseline
  does not record, or an empty baseline directory (the gate fails
  closed on what it cannot see);
* a figure whose run conditions differ from its baseline's —
  ``bench_scale``: a scaled-down smoke run's numbers are not comparable
  to full-scale baselines, so it cannot pass against them.

Improvements are reported but never gate.  The CLI front-end
(``python -m repro.harness.cli bench-compare``) exits nonzero iff any
of these was found, which is the CI gate.

:func:`compare_runs` is the one comparison loop: it takes two
``{figure: Scorecard}`` maps, so ``bench-compare`` (two directories)
and ``runs diff`` (two recorded runs) gate by the same rule.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .scorecard import Scorecard, load_scorecard

__all__ = [
    "MetricDelta",
    "CompareReport",
    "compare_runs",
    "compare_dirs",
]

#: Meta keys that must match between baseline and current run for the
#: comparison to be meaningful; a mismatch fails the figure.
_GATING_META = ("bench_scale",)


@dataclass
class MetricDelta:
    """One metric compared across runs."""

    figure: str
    name: str
    baseline: float
    current: float
    better: str
    regression: bool
    detail: str = ""

    def __str__(self) -> str:
        flag = "REGRESSION" if self.regression else "ok"
        return "%-10s %s/%s: %.4f -> %.4f (%s)%s" % (
            flag, self.figure, self.name, self.baseline, self.current,
            self.better, (" — " + self.detail) if self.detail else "")


@dataclass
class CompareReport:
    """Outcome of comparing a run against the committed baselines."""

    deltas: List[MetricDelta] = field(default_factory=list)
    #: Figures whose run conditions (``bench_scale``) differ.
    mismatched: List[str] = field(default_factory=list)
    #: Baseline-passing shape checks that fail in the current run.
    failed_checks: List[str] = field(default_factory=list)
    #: Baseline figures and gated metrics the current run lacks, checks
    #: the baseline lacks, and an empty baseline directory.
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.failed_checks or self.missing
                    or self.mismatched)

    def format(self) -> str:
        lines = ["bench-compare: %d metrics, %d regressions, "
                 "%d failed checks, %d missing, %d mismatched"
                 % (len(self.deltas), len(self.regressions),
                    len(self.failed_checks), len(self.missing),
                    len(self.mismatched))]
        for d in self.deltas:
            if d.regression:
                lines.append("  " + str(d))
        for name in self.failed_checks:
            lines.append("  REGRESSION check %s now fails" % name)
        for name in self.missing:
            lines.append("  MISSING %s" % name)
        for name in self.mismatched:
            lines.append("  MISMATCH %s" % name)
        if self.ok:
            lines.append("  all gated metrics within tolerance")
        return "\n".join(lines)


def _is_regression(better: str, base: float, cur: float,
                   rtol: float, atol: float) -> bool:
    tol = atol + rtol * abs(base)
    if better == "higher":
        return cur < base - tol
    if better == "lower":
        return cur > base + tol
    if better == "equal":
        return abs(cur - base) > tol
    return False  # "info" never gates


def _compare_into(report: CompareReport, baseline: Scorecard,
                  current: Scorecard) -> None:
    for key in _GATING_META:
        b, c = baseline.meta.get(key), current.meta.get(key)
        if b is not None and c is not None and b != c:
            report.mismatched.append(
                "%s: %s mismatch (baseline=%s current=%s)"
                % (baseline.figure, key, b, c))
            return
    for bm in baseline.metrics:
        cm = current.metric(bm.name)
        if cm is None:
            report.missing.append("%s/%s: metric missing from current run"
                                  % (baseline.figure, bm.name))
            continue
        regressed = _is_regression(bm.better, bm.value, cm.value,
                                   bm.rtol, bm.atol)
        report.deltas.append(MetricDelta(
            figure=baseline.figure, name=bm.name,
            baseline=bm.value, current=cm.value, better=bm.better,
            regression=regressed,
            detail="tolerance rtol=%g atol=%g" % (bm.rtol, bm.atol)
            if regressed else ""))
    recorded = {c.name: c.passed for c in baseline.checks}
    for check in current.checks:
        if check.name not in recorded:
            report.missing.append("%s/%s: check not recorded by the baseline"
                                  % (current.figure, check.name))
        elif recorded[check.name] and not check.passed:
            report.failed_checks.append(
                "%s/%s%s" % (current.figure, check.name,
                             (": " + check.detail) if check.detail else ""))


def compare_runs(baseline: Dict[str, Scorecard],
                 current: Dict[str, Scorecard],
                 absent: str) -> CompareReport:
    """Compare two ``{figure: Scorecard}`` maps, figure by figure.

    A baseline figure with no current counterpart fails (reason
    ``absent``); a current figure with no baseline is ignored (a new
    figure cannot regress).
    """
    report = CompareReport()
    for figure in sorted(baseline):
        if figure in current:
            _compare_into(report, baseline[figure], current[figure])
        else:
            report.missing.append("%s: %s" % (figure, absent))
    return report


def compare_dirs(baseline_dir: str, current_dir: str,
                 figures: Optional[List[str]] = None) -> CompareReport:
    """Compare every ``BENCH_*.json`` in ``current_dir`` against its
    committed twin in ``baseline_dir`` (see :func:`compare_runs`).
    ``figures`` restricts the comparison to the named figures; no other
    baseline may be missing from ``current_dir``.
    """
    report = CompareReport()
    paths = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not paths:
        report.missing.append("no baselines in %s" % baseline_dir)
        return report
    baseline, current = {}, {}
    for bpath in paths:
        base = load_scorecard(bpath)
        if figures is not None and base.figure not in figures:
            continue
        baseline[base.figure] = base
        cpath = os.path.join(current_dir, os.path.basename(bpath))
        if os.path.exists(cpath):
            current[base.figure] = load_scorecard(cpath)
    return compare_runs(baseline, current, "not produced by this run")
