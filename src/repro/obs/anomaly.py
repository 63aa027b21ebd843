"""Deterministic anomaly detection over sweeps, timelines, and counters.

Every anomaly check the repo shipped before this module was hand-coded
per figure ("Fig. 2a collapses below 0.55x of peak past 560 QPs") —
thresholds that break the moment a sweep changes shape and that cannot
generalize to machine-found scenarios (the Collie-style adversarial
search in ROADMAP.md).  This module replaces them with three *generic*
detectors, each a pure function of its input series — no RNG, no wall
clock, no external dependencies — so the detected anomaly set is
byte-identical across repeated runs and across ``--jobs N`` worker
counts:

* :func:`detect_cliffs` — the largest *relative step* between adjacent
  sweep points: a drop (or rise) of more than ``min_rel_step`` of the
  local level is a cliff, located at the post-step x.
* :func:`detect_knees` — Kneedle-style maximum distance to the chord:
  normalize the curve to the unit square (index space on x, so
  geometric sweeps like Fig. 2a's QP ramp need no log heuristics) and
  flag the point furthest from the straight line between the curve's
  endpoints.  A knee marks where a curve stops rising (saturation) or
  starts falling — Fig. 2a's QP-cache plateau edge.
* :func:`detect_changepoints` — binary segmentation on windowed means:
  recursively split a per-window series (p99, goodput) at the index
  maximizing the mean shift normalized by the pooled mean absolute
  deviation.  A split must clear both a noise gate (shift ≫ in-segment
  scatter) and a relative-magnitude gate (shift is a meaningful
  fraction of the level), so stationary-but-noisy smoke runs stay
  silent while a mid-run step (e.g. the ``bench.step_handler_cost``
  fault) fires.
* :func:`detect_counter_bursts` — a per-window counter delta exceeding
  a rolling baseline of the preceding windows (ECN marks, PFC pauses,
  switch drops suddenly appearing or spiking).

Each detector emits typed :class:`Anomaly` records carrying the figure
and series it was found in, the x-location / window span, a severity in
``[0, 1]``, and the evidence series itself.  The severity scale is
uniform across detectors: the *fraction of the signal that moved* —
``1 - post/pre`` for a cliff, ``|Δmean| / max(pre, post)`` for a level
shift, ``1 - baseline/value`` for a burst — so ``< 0.25`` reads as
mild, ``0.25–0.5`` as moderate and ``>= 0.5`` as severe regardless of
which detector produced it.

:func:`detect_run_anomalies` runs the windowed detectors over one run's
SLO timeline report (:meth:`repro.obs.windows.SloTimeline.report`) and
is what every figure runner calls to populate
``RunResult.anomalies``.  :mod:`repro.obs.explain` joins anomalies to
critical-path attribution for the *why*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Anomaly",
    "detect_cliffs",
    "detect_knees",
    "detect_sweep_anomalies",
    "detect_changepoints",
    "detect_counter_bursts",
    "detect_run_anomalies",
    "severity_label",
]

#: Anomaly kinds the detectors emit.
KINDS = ("cliff", "knee", "changepoint", "counter_burst")

#: Severity thresholds of the uniform scale (see module docstring).
SEVERITY_BANDS = ((0.5, "severe"), (0.25, "moderate"), (0.0, "mild"))

# The detectors' thresholds: one set for every figure and run.
#: A knee's least offset from the chord, as a fraction of the unit square.
KNEE_MIN_DISTANCE = 0.2
#: Fewest windows on each side of a changepoint split.
CHANGEPOINT_MIN_SEGMENT = 2
#: A split's least mean shift over the pooled in-segment scatter.
CHANGEPOINT_MIN_SCORE = 3.0
#: A split's least shift as a fraction of the larger level.
CHANGEPOINT_MIN_REL_SHIFT = 0.25
#: Preceding windows a counter burst's rolling baseline averages.
BURST_BASELINE_WINDOWS = 3
#: How many times its baseline a burst's delta must exceed.
BURST_FACTOR = 4.0
#: The least per-window delta that can be a burst.
BURST_ABS_FLOOR = 8.0


def severity_label(severity: float) -> str:
    """The uniform severity band: mild < 0.25 <= moderate < 0.5 <= severe."""
    for floor, label in SEVERITY_BANDS:
        if severity >= floor:
            return label
    return "mild"


@dataclass
class Anomaly:
    """One detected anomaly, JSON-safe and stably ordered.

    ``x`` locates the anomaly on the series' own axis — the sweep x
    value for cliffs/knees, the window index for changepoints and
    bursts — and ``span`` brackets it (pre-x .. post-x for a step, the
    window's virtual timestamps for windowed detections).
    """

    kind: str
    #: The series' owning figure/experiment ("fig2a"); may be filled in
    #: by the caller after detection (runners don't know their figure).
    figure: str
    #: Which series within the figure ("mops", "rc-read qps=2816/p99_us").
    series: str
    #: The y-metric the detector examined ("mops", "p99_us", "ecn_marks").
    metric: str
    x: float
    span: Tuple[float, float]
    #: "drop" or "rise".
    direction: str
    #: Uniform [0, 1] severity (see :func:`severity_label`).
    severity: float
    detail: str = ""
    #: The series evidence: input xs/ys plus detector-specific values.
    evidence: Dict[str, Any] = field(default_factory=dict)

    @property
    def severity_band(self) -> str:
        return severity_label(self.severity)

    def sort_key(self) -> Tuple:
        return (self.figure, self.series, self.metric, self.kind, self.x)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "figure": self.figure,
            "series": self.series,
            "metric": self.metric,
            "x": self.x,
            "span": list(self.span),
            "direction": self.direction,
            "severity": self.severity,
            "severity_band": self.severity_band,
            "detail": self.detail,
            "evidence": self.evidence,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Anomaly":
        return cls(kind=data["kind"], figure=data.get("figure", ""),
                   series=data.get("series", ""),
                   metric=data.get("metric", ""),
                   x=float(data["x"]),
                   span=tuple(data.get("span", (data["x"], data["x"]))),
                   direction=data.get("direction", "drop"),
                   severity=float(data.get("severity", 0.0)),
                   detail=data.get("detail", ""),
                   evidence=dict(data.get("evidence", {})))

    def __str__(self) -> str:
        return ("%s[%s] %s/%s at x=%g (span %g..%g, %s, severity %.2f)"
                % (self.kind, self.direction, self.series or self.figure,
                   self.metric, self.x, self.span[0], self.span[1],
                   self.severity_band, self.severity))


def _round6(x: float) -> float:
    """Evidence values are rounded so reports stay tidy; detection math
    itself always runs on the raw floats."""
    return round(float(x), 6)


# ---------------------------------------------------------------------------
# Sweep-curve detectors: cliffs and knees
# ---------------------------------------------------------------------------

def detect_cliffs(xs: Sequence[float], ys: Sequence[float], *,
                  metric: str = "y", series: str = "", figure: str = "",
                  min_rel_step: float = 0.25) -> List[Anomaly]:
    """Largest-relative-step cliff detection on a sweep curve.

    Scans adjacent point pairs for the largest relative change
    ``|y[i+1] - y[i]| / max(y[i], y[i+1])`` and emits a cliff when it
    reaches ``min_rel_step`` — i.e. at least a quarter of the local
    level vanished (or appeared) between two sweep points.  Only the
    single largest step is reported per direction: a collapse spanning
    several points is one cliff, not one per sample.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    best: Dict[str, Tuple[float, int]] = {}
    for i in range(len(ys) - 1):
        pre, post = ys[i], ys[i + 1]
        level = max(abs(pre), abs(post))
        if level <= 0.0:
            continue
        rel = (post - pre) / level
        direction = "drop" if rel < 0 else "rise"
        mag = abs(rel)
        if mag >= min_rel_step and (direction not in best
                                    or mag > best[direction][0]):
            best[direction] = (mag, i)
    out = []
    for direction in ("drop", "rise"):
        if direction not in best:
            continue
        mag, i = best[direction]
        out.append(Anomaly(
            kind="cliff", figure=figure, series=series, metric=metric,
            x=xs[i + 1], span=(xs[i], xs[i + 1]), direction=direction,
            severity=_round6(min(1.0, mag)),
            detail="%s %s by %.0f%% between x=%g and x=%g"
                   % (metric, "falls" if direction == "drop" else "jumps",
                      mag * 100.0, xs[i], xs[i + 1]),
            evidence={"xs": [_round6(x) for x in xs],
                      "ys": [_round6(y) for y in ys],
                      "pre": _round6(ys[i]), "post": _round6(ys[i + 1])}))
    out.sort(key=Anomaly.sort_key)
    return out


def detect_knees(xs: Sequence[float], ys: Sequence[float], *,
                 metric: str = "y", series: str = "",
                 figure: str = "") -> List[Anomaly]:
    """Kneedle-style knee detection: the point furthest from the chord.

    The curve is normalized to the unit square — *index space* on x, so
    geometric sweeps (22, 176, 704, 2816 QPs) need no log heuristics and
    the detector stays scale-free — and the perpendicular offset of
    every interior point from the straight line joining the endpoints is
    computed.  The maximum-offset point is the knee when its offset
    reaches :data:`KNEE_MIN_DISTANCE` of the unit square; a point *above* the
    chord is a saturation knee (the curve rose then flattened/fell, a
    "rise" then loss of slope), one *below* is an onset knee.
    """
    n = len(ys)
    if len(xs) != n:
        raise ValueError("xs and ys must have equal length")
    if n < 3:
        return []
    lo, hi = min(ys), max(ys)
    if hi <= lo:
        return []
    norm = [(y - lo) / (hi - lo) for y in ys]
    best_i, best_off = -1, 0.0
    for i in range(1, n - 1):
        t = i / (n - 1.0)
        chord = norm[0] + t * (norm[-1] - norm[0])
        off = norm[i] - chord
        if abs(off) > abs(best_off):
            best_i, best_off = i, off
    if best_i < 0 or abs(best_off) < KNEE_MIN_DISTANCE:
        return []
    direction = "rise" if best_off > 0 else "drop"
    return [Anomaly(
        kind="knee", figure=figure, series=series, metric=metric,
        x=xs[best_i],
        span=(xs[max(0, best_i - 1)], xs[min(n - 1, best_i + 1)]),
        direction=direction,
        severity=_round6(min(1.0, abs(best_off))),
        detail="curve bends %s the endpoint chord hardest at x=%g "
               "(offset %.2f of range)"
               % ("above" if best_off > 0 else "below", xs[best_i],
                  abs(best_off)),
        evidence={"xs": [_round6(x) for x in xs],
                  "ys": [_round6(y) for y in ys],
                  "chord_offset": _round6(best_off)})]


def detect_sweep_anomalies(xs: Sequence[float], ys: Sequence[float], *,
                           metric: str = "y", series: str = "",
                           figure: str = "") -> List[Anomaly]:
    """Both sweep-curve detectors over one (xs, ys) series, stably
    ordered.  This is what scorecard builders call on a figure's
    headline curve (e.g. Fig. 2a's mops-vs-QPs)."""
    out = detect_knees(xs, ys, metric=metric, series=series, figure=figure)
    out += detect_cliffs(xs, ys, metric=metric, series=series, figure=figure)
    out.sort(key=Anomaly.sort_key)
    return out


# ---------------------------------------------------------------------------
# Windowed-series detectors: changepoints and counter bursts
# ---------------------------------------------------------------------------

def _mean(vals: Sequence[float]) -> float:
    return sum(vals) / len(vals)


def _mad(vals: Sequence[float], center: float) -> float:
    """Mean absolute deviation around ``center``."""
    return sum(abs(v - center) for v in vals) / len(vals)


def detect_changepoints(values: Sequence[float], *,
                        max_splits: int = 3) -> List[Tuple[int, float, float, float]]:
    """Binary segmentation for mean level shifts in a windowed series.

    Returns ``[(index, pre_mean, post_mean, score), ...]`` where
    ``index`` is the first window of the new level.  A candidate split
    at ``k`` scores ``|mean(right) - mean(left)|`` over the pooled mean
    absolute deviation of the two segments (floored at 1% of the series
    level so a perfectly flat segment cannot divide by zero).  A split
    is accepted only when

    * ``score >= CHANGEPOINT_MIN_SCORE`` — the shift stands well clear
      of the in-segment scatter (the noise gate), and
    * the shift is at least ``CHANGEPOINT_MIN_REL_SHIFT`` of the larger
      level (the magnitude gate — a statistically crisp 2% drift is not
      an anomaly).

    Each side of a split keeps at least ``CHANGEPOINT_MIN_SEGMENT``
    windows.

    Accepted splits recurse into both halves (at most ``max_splits``
    total), largest-score-first, with ties broken by the earlier index
    — fully deterministic.
    """
    values = list(values)
    found: List[Tuple[int, float, float, float]] = []

    def best_split(lo: int, hi: int):
        """The strongest accepted split of values[lo:hi), or None."""
        n = hi - lo
        if n < 2 * CHANGEPOINT_MIN_SEGMENT:
            return None
        best = None
        for k in range(lo + CHANGEPOINT_MIN_SEGMENT,
                       hi - CHANGEPOINT_MIN_SEGMENT + 1):
            left, right = values[lo:k], values[k:hi]
            ml, mr = _mean(left), _mean(right)
            level = max(abs(ml), abs(mr))
            if level <= 0.0:
                continue
            shift = abs(mr - ml)
            if shift / level < CHANGEPOINT_MIN_REL_SHIFT:
                continue
            pooled = (_mad(left, ml) * len(left)
                      + _mad(right, mr) * len(right)) / n
            pooled = max(pooled, 0.01 * level)
            score = shift / pooled
            if score >= CHANGEPOINT_MIN_SCORE and (best is None
                                                   or score > best[3]):
                best = (k, ml, mr, score)
        return best

    frontier = [(0, len(values))]
    while frontier and len(found) < max_splits:
        candidates = []
        for lo, hi in frontier:
            split = best_split(lo, hi)
            if split is not None:
                candidates.append((lo, hi, split))
        if not candidates:
            break
        # Largest score first; earlier index breaks ties.
        lo, hi, (k, ml, mr, score) = max(
            candidates, key=lambda c: (c[2][3], -c[2][0]))
        found.append((k, ml, mr, score))
        frontier = [(a, b) for a, b in frontier if (a, b) != (lo, hi)]
        frontier += [(lo, k), (k, hi)]
    found.sort(key=lambda f: f[0])
    return found


def detect_counter_bursts(values: Sequence[float]
                          ) -> List[Tuple[int, float, float]]:
    """Rolling-baseline burst detection on per-window counter deltas.

    Returns ``[(index, value, baseline), ...]``.  Window ``i`` (``i >=
    1``) bursts when its delta exceeds ``BURST_ABS_FLOOR`` *and*
    ``BURST_FACTOR`` times the mean of the preceding (up to
    ``BURST_BASELINE_WINDOWS``) deltas.  A counter that was silent and
    suddenly produces ``BURST_ABS_FLOOR`` events in one window is a
    burst (baseline 0); a counter that ticks steadily every window is
    not, no matter how large its level.
    """
    out = []
    for i in range(1, len(values)):
        window = values[max(0, i - BURST_BASELINE_WINDOWS):i]
        baseline = _mean(window)
        if (values[i] >= BURST_ABS_FLOOR
                and values[i] > BURST_FACTOR * max(baseline, 1e-12)):
            out.append((i, values[i], baseline))
    return out


def detect_run_anomalies(slo: Optional[Dict[str, Any]], *,
                         label: str = "") -> List[Dict[str, Any]]:
    """All windowed anomalies of one run's SLO timeline report.

    Runs :func:`detect_changepoints` over the per-window ``p99_us`` and
    ``goodput_mops`` series and :func:`detect_counter_bursts` over every
    per-window counter delta (ECN marks, PFC pauses, switch drops, ...).
    Returns plain dicts (:meth:`Anomaly.to_dict`), stably sorted — the
    form that rides on ``RunResult.anomalies``, crosses the parallel
    executor's pickle boundary untouched, and lands in scorecard
    ``meta["anomalies"]`` blocks.  ``slo=None`` (no timeline attached)
    yields the empty list.
    """
    if not slo:
        return []
    rows = slo.get("windows") or []
    anomalies: List[Anomaly] = []

    def window_span(idx: int) -> Tuple[float, float]:
        row = rows[idx]
        return (row["t0_ns"], row["t1_ns"])

    # Latency / goodput level shifts.  Windows with no completions have
    # p99_us None; detection runs on the observed subsequence and maps
    # split indices back to real window ids.
    for metric in ("p99_us", "goodput_mops"):
        series = [(row["window"], row[metric]) for row in rows
                  if row.get(metric) is not None]
        vals = [v for _w, v in series]
        for k, pre, post, score in detect_changepoints(vals):
            widx = series[k][0]
            level = max(abs(pre), abs(post))
            anomalies.append(Anomaly(
                kind="changepoint", figure="", series=label,
                metric=metric, x=float(widx), span=window_span(widx),
                direction="rise" if post > pre else "drop",
                severity=_round6(min(1.0, abs(post - pre) / level)
                                 if level else 0.0),
                detail="%s level shifts %.4g -> %.4g at window %d "
                       "(score %.1f)" % (metric, pre, post, widx, score),
                evidence={"windows": [w for w, _v in series],
                          "values": [_round6(v) for v in vals],
                          "pre_mean": _round6(pre),
                          "post_mean": _round6(post),
                          "score": _round6(score)}))

    # Counter bursts over per-window deltas.
    names = sorted({name for row in rows
                    for name in (row.get("counters") or ())})
    for name in names:
        deltas = [float((row.get("counters") or {}).get(name, 0.0))
                  for row in rows]
        for idx, value, baseline in detect_counter_bursts(deltas):
            anomalies.append(Anomaly(
                kind="counter_burst", figure="", series=label,
                metric=name, x=float(rows[idx]["window"]),
                span=window_span(idx), direction="rise",
                severity=_round6(min(1.0, 1.0 - baseline / value)
                                 if value > 0 else 0.0),
                detail="%s bursts to %g in window %d (rolling baseline "
                       "%.4g)" % (name, value, rows[idx]["window"],
                                  baseline),
                evidence={"values": [_round6(v) for v in deltas],
                          "baseline": _round6(baseline)}))

    anomalies.sort(key=Anomaly.sort_key)
    return [a.to_dict() for a in anomalies]
