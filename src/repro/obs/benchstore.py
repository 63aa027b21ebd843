"""The bench store: regression gating over committed scorecards.

``benchmarks/baselines/`` holds one committed ``BENCH_<figure>.json``
per benchmark figure.  After a fresh benchmark run writes its own
scorecards, :func:`compare_dirs` matches them up by figure and flags:

* a gated metric drifting beyond its baseline tolerance in the *worse*
  direction ("higher"-is-better metrics may only fall so far, "lower"
  only rise, "equal" may not move at all);
* a shape check that held in the baseline but fails now.

Improvements are reported but never gate.  Comparisons are skipped (not
failed) when run conditions differ — most importantly ``bench_scale``,
since scaled-down smoke runs produce numbers that are not comparable to
full-scale baselines.  The CLI front-end (``repro-bench bench-compare``)
exits nonzero iff regressions were found, which is the CI gate.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import List, Optional

from .anomaly import diff_anomaly_sets
from .scorecard import Scorecard, load_scorecard

__all__ = [
    "MetricDelta",
    "CompareReport",
    "compare_scorecards",
    "compare_dirs",
]

#: Meta keys that must match between baseline and current run for the
#: comparison to be meaningful.
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
    #: Figure-level skips with reasons (scale mismatch, missing files).
    skipped: List[str] = field(default_factory=list)
    #: Baseline-passing shape checks that fail in the current run.
    failed_checks: List[str] = field(default_factory=list)
    #: Anomaly-set drift (new / vanished / moved anomalies) between the
    #: runs' ``meta["anomalies"]`` blocks.  Informational only — drift
    #: surfaces in :meth:`format` but never flips :attr:`ok`; the gated
    #: metrics and held checks are the contract, the anomaly diff is the
    #: explanation of *where* a regression bit.
    anomaly_flags: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failed_checks

    def format(self) -> str:
        lines = ["bench-compare: %d metrics, %d regressions, "
                 "%d failed checks, %d skipped"
                 % (len(self.deltas), len(self.regressions),
                    len(self.failed_checks), len(self.skipped))]
        for d in self.deltas:
            if d.regression:
                lines.append("  " + str(d))
        for name in self.failed_checks:
            lines.append("  REGRESSION check %s now fails" % name)
        for flag in self.anomaly_flags:
            lines.append("  anomaly %s" % flag)
        for s in self.skipped:
            lines.append("  skip %s" % s)
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


def compare_scorecards(baseline: Scorecard,
                       current: Scorecard) -> CompareReport:
    """Compare one figure's scorecards; tolerance and direction come
    from the *baseline* (the committed contract)."""
    report = CompareReport()
    for key in _GATING_META:
        b, c = baseline.meta.get(key), current.meta.get(key)
        if b is not None and c is not None and b != c:
            report.skipped.append(
                "%s: %s mismatch (baseline=%s current=%s)"
                % (baseline.figure, key, b, c))
            return report
    for bm in baseline.metrics:
        cm = current.metric(bm.name)
        if cm is None:
            report.skipped.append("%s/%s: metric missing from current run"
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
    held = {c.name for c in baseline.checks if c.passed}
    for check in current.checks:
        if not check.passed and check.name in held:
            report.failed_checks.append(
                "%s/%s%s" % (current.figure, check.name,
                             (": " + check.detail) if check.detail else ""))
    diff = diff_anomaly_sets(baseline.meta.get("anomalies"),
                             current.meta.get("anomalies"))
    for verb in ("new", "vanished", "moved"):
        for entry in diff[verb]:
            report.anomaly_flags.append(
                "%s %s: %s" % (baseline.figure, verb, entry))
    return report


def _merge(into: CompareReport, part: CompareReport) -> None:
    into.deltas.extend(part.deltas)
    into.skipped.extend(part.skipped)
    into.failed_checks.extend(part.failed_checks)
    into.anomaly_flags.extend(part.anomaly_flags)


def compare_dirs(baseline_dir: str, current_dir: str,
                 figures: Optional[List[str]] = None) -> CompareReport:
    """Compare every ``BENCH_*.json`` in ``current_dir`` against its
    committed twin in ``baseline_dir``.

    Baselines with no current counterpart are recorded as skips (the
    figure was not run), not failures; unknown current figures are
    ignored (a new figure cannot regress).  ``figures`` restricts the
    comparison to the named figures.
    """
    report = CompareReport()
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        report.skipped.append("no baselines in %s" % baseline_dir)
        return report
    for bpath in baselines:
        base = load_scorecard(bpath)
        if figures is not None and base.figure not in figures:
            continue
        cpath = os.path.join(current_dir, os.path.basename(bpath))
        if not os.path.exists(cpath):
            report.skipped.append("%s: not produced by this run"
                                  % base.figure)
            continue
        _merge(report, compare_scorecards(base, load_scorecard(cpath)))
    return report
