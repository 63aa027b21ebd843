"""Virtual-time-windowed SLO tracking.

End-of-run aggregates hide trajectories: a run whose p99 is fine for
90% of the window and collapses in the last tenth reports the same
single number as a uniformly mediocre one.  A :class:`SloTimeline`
splits the measurement window into fixed-width *virtual-time* windows
and keeps, per window:

* a mergeable :class:`repro.obs.sketch.QuantileSketch` of completion
  latencies → per-window p50/p99/p999,
* the completed-op count → per-window goodput (Mops),
* deltas of registered cumulative *counter sources* (ECN marks, PFC
  pauses, switch drops, ...) sampled at window rollover.

Windows advance with the observations themselves — no simulator events
are scheduled, no RNG is touched, so attaching a timeline never changes
a run's results (the serial-vs-parallel byte-identity contract keeps
holding).  Counter sources are sampled when the first observation of a
later window arrives (and once more at :meth:`SloTimeline.finish`); a
delta spanning several silent windows is attributed to the last closed
window, which is exact whenever ops complete every window and
conservative otherwise.

Every figure runner attaches a timeline to its
:class:`repro.harness.metrics.Recorder`; the report rides on
:class:`repro.harness.metrics.RunResult` as plain JSON-safe data, lands
in scorecard ``meta["slo"]`` blocks, and exports via the CLI's
``--slo-timeline FILE``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .sketch import QuantileSketch

__all__ = [
    "DEFAULT_WINDOWS",
    "SloTimeline",
    "attach_switch_sources",
]

#: Number of windows a measurement window is split into.
DEFAULT_WINDOWS = 8


class _Window:
    """One window's accumulating state."""

    __slots__ = ("ops", "sketch", "counters")

    def __init__(self):
        self.ops = 0
        self.sketch: Optional[QuantileSketch] = None
        self.counters: Dict[str, float] = {}


class SloTimeline:
    """Windowed latency/goodput/counter tracking over [t0, t1)."""

    def __init__(self, t0: float, t1: float,
                 n_windows: int = DEFAULT_WINDOWS):
        if t1 <= t0:
            raise ValueError("empty SLO window span")
        self.t0 = t0
        self.t1 = t1
        self.n_windows = n_windows
        self.window_ns = (t1 - t0) / self.n_windows
        self._windows: Dict[int, _Window] = {}
        self._sources: Dict[str, Callable[[], float]] = {}
        self._last_sample: Dict[str, float] = {}
        self._cursor = 0
        self._finished = False

    # -- wiring ---------------------------------------------------------

    def add_source(self, name: str, fn: Callable[[], float]) -> None:
        """Register a cumulative counter callable; per-window deltas are
        recorded at rollover.  Must be added before the run starts."""
        self._sources[name] = fn
        self._last_sample[name] = float(fn())

    # -- recording ------------------------------------------------------

    def _window(self, idx: int) -> _Window:
        win = self._windows.get(idx)
        if win is None:
            win = self._windows[idx] = _Window()
        return win

    def _sample_sources(self, into_idx: int) -> None:
        """Record each source's delta since the last sample into window
        ``into_idx``."""
        if not self._sources:
            return
        win = self._window(into_idx)
        for name, fn in self._sources.items():
            now_val = float(fn())
            delta = now_val - self._last_sample[name]
            self._last_sample[name] = now_val
            win.counters[name] = win.counters.get(name, 0.0) + delta

    def _advance(self, idx: int) -> None:
        """Close windows behind ``idx``; counter deltas land in the last
        closed window."""
        if idx > self._cursor:
            self._sample_sources(idx - 1)
            self._cursor = idx

    def observe(self, now: float, latency_ns: float) -> None:
        """Record one completed op at virtual time ``now`` with the
        given latency.  Ops outside [t0, t1) are ignored."""
        if self._finished or not (self.t0 <= now < self.t1):
            return
        idx = int((now - self.t0) / self.window_ns)
        if idx >= self.n_windows:  # float edge at t1
            idx = self.n_windows - 1
        self._advance(idx)
        win = self._window(idx)
        win.ops += 1
        if win.sketch is None:
            win.sketch = QuantileSketch()
        win.sketch.observe(latency_ns)

    def finish(self) -> None:
        """Close out the timeline (samples sources one final time into
        the last window).  Idempotent."""
        if self._finished:
            return
        self._sample_sources(self.n_windows - 1)
        self._finished = True

    # -- reporting ------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """The timeline as plain JSON-safe data (finishes first).

        Returns ``{"window_ns", "t0_ns", "t1_ns", "windows": [...],
        "violations": []}``; one row per window with ops, goodput_mops, p50/p99/p999_us (None when
        the window saw no completions) and per-window counter deltas.
        """
        self.finish()
        rows: List[Dict[str, Any]] = []
        for idx in range(self.n_windows):
            win = self._windows.get(idx)
            ops = win.ops if win else 0
            row: Dict[str, Any] = {
                "window": idx,
                "t0_ns": self.t0 + idx * self.window_ns,
                "t1_ns": self.t0 + (idx + 1) * self.window_ns,
                "ops": ops,
                "goodput_mops": round(ops / self.window_ns * 1e3, 6),
            }
            for key, p in (("p50_us", 50.0), ("p99_us", 99.0),
                           ("p999_us", 99.9)):
                row[key] = (round(win.sketch.percentile(p) / 1e3, 4)
                            if win is not None and win.sketch is not None
                            else None)
            if win is not None and win.counters:
                row["counters"] = {k: win.counters[k]
                                   for k in sorted(win.counters)}
            rows.append(row)
        return {
            "window_ns": self.window_ns,
            "t0_ns": self.t0,
            "t1_ns": self.t1,
            "windows": rows,
            # Kept empty: committed scorecards and perf digests hash it.
            "violations": [],
        }


def attach_switch_sources(timeline: SloTimeline, fabric) -> SloTimeline:
    """Wire the congestion switch's cumulative counters (ECN marks, PFC
    pause events, drops) as per-window sources when the fabric runs the
    switched congestion model; a no-op on the contention-free fabric.
    Returns the timeline for chaining."""
    switch = getattr(fabric, "switch", None)
    if switch is not None:
        timeline.add_source("ecn_marks", lambda: switch.total_ecn_marks)
        timeline.add_source("pfc_pauses", lambda: switch.total_pause_events)
        timeline.add_source("switch_drops", lambda: switch.total_drops)
    return timeline
