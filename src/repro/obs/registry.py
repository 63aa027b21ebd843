"""The metrics registry: counters, gauges and histograms by name.

Every value a run reports is kept once, by the component that owns it:
``Rnic.messages_tx``, ``CacheStats.misses``, ``SwitchPort.ecn_marks``
and so on are plain integer (or float) attributes bumped on the hot
path.  They become named series only when a simulator's run is over
(:func:`ledger_state`, which :meth:`repro.harness.metrics.Run.finish`
puts on ``RunResult.metrics``): each registered component reports its
ledgers through ``report_metrics`` into a :class:`Registry`,

* as **counters** — totals summed over components and over the runs
  a registry has folded (messages sent, cache misses, PCIe stall ns);
* as **gauges** — a point-in-time value per label set, the last run's
  (queue depth, pipeline occupancy, link utilization); and
* as **histograms** — a distribution, which its component keeps as a
  ``{value: count}`` ledger (coalescing degree, CQ depth) and hands
  over through :meth:`Registry.observe`.  The registry folds it into a
  bounded-memory mergeable :class:`repro.obs.sketch.QuantileSketch`:
  exact count, sum, min and max, percentiles within the sketch's
  relative-error bound.

This module is intentionally dependency-free (stdlib only).
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Iterable, Tuple

from .sketch import QuantileSketch

__all__ = ["Registry", "SUMMARY_KEYS", "ledger_state"]

#: The summary schema: every histogram summary carries exactly these
#: keys in this order, and ``to_csv`` emits one row per key.
SUMMARY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p99", "p999")


def _summary(sketch: QuantileSketch) -> Dict[str, float]:
    """The :data:`SUMMARY_KEYS` schema of one distribution.  An empty
    one is all zeros (count an int, the rest floats)."""
    if not sketch.count:
        return {key: 0 if key == "count" else 0.0 for key in SUMMARY_KEYS}
    return {
        "count": sketch.count,
        "sum": sketch.total,
        "min": sketch.min,
        "max": sketch.max,
        "mean": sketch.mean,
        "p50": sketch.percentile(50),
        "p99": sketch.percentile(99),
        "p999": sketch.percentile(99.9),
    }


def _label_key(labels: Dict[str, Any]) -> Tuple:
    """Canonical hashable form of a label set."""
    return tuple(sorted(labels.items()))


def _format_name(name: str, labels: Dict[str, Any]) -> str:
    """Prometheus-style display name: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join("%s=%s" % (k, v) for k, v in sorted(labels.items()))
    return "%s{%s}" % (name, inner)


class Registry:
    """Named counters, gauges and histograms.

    Every series is keyed by ``(name, labels)``: :meth:`add` sums into a
    counter, :meth:`set` overwrites a gauge and :meth:`observe` adds to
    a histogram's sketch.  Components never call them on the hot path;
    they report their ledgers once per run through ``report_metrics``
    (see :func:`ledger_state`).  Runs fold together through
    :meth:`merge_state`.
    """

    def __init__(self):
        self._counters: Dict[Tuple, float] = {}
        self._gauges: Dict[Tuple, float] = {}
        self._histograms: Dict[Tuple, QuantileSketch] = {}

    def add(self, name: str, value: float, **labels) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Record ``value`` as the gauge ``name``."""
        self._gauges[(name, _label_key(labels))] = float(value)

    def observe(self, name: str, value: float, n: int = 1,
                **labels) -> None:
        """Add ``n`` observations of ``value`` to the histogram ``name``.

        The histogram exists from its first mention, so ``n=0`` reports
        an empty one: it still appears, with the all-zero summary.
        """
        self._sketch((name, _label_key(labels))).observe(value, n)

    def _sketch(self, key: Tuple) -> QuantileSketch:
        sketch = self._histograms.get(key)
        if sketch is None:
            sketch = self._histograms[key] = QuantileSketch()
        return sketch

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All values keyed by display name."""
        return {
            "counters": {
                _format_name(name, dict(lbl)): value
                for (name, lbl), value in self._counters.items()
            },
            "gauges": {
                _format_name(name, dict(lbl)): value
                for (name, lbl), value in self._gauges.items()
            },
            "histograms": {
                _format_name(name, dict(lbl)): _summary(sketch)
                for (name, lbl), sketch in self._histograms.items()
            },
        }

    def to_json(self) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The snapshot as flat CSV rows: type,name,field,value.  Each
        value is written as the shortest text that parses back to it."""
        out = io.StringIO()
        out.write("type,name,field,value\n")
        snap = self.snapshot()
        for name in sorted(snap["counters"]):
            out.write("counter,%s,value,%r\n"
                      % (name, float(snap["counters"][name])))
        for name in sorted(snap["gauges"]):
            out.write("gauge,%s,value,%r\n"
                      % (name, float(snap["gauges"][name])))
        for name in sorted(snap["histograms"]):
            for field in SUMMARY_KEYS:
                out.write("histogram,%s,%s,%r\n"
                          % (name, field,
                             float(snap["histograms"][name][field])))
        return out.getvalue()

    # -- cross-process state --------------------------------------------

    def export_state(self) -> dict:
        """A picklable snapshot of every series' *full* state.

        Unlike :meth:`snapshot` (display names, summarized histograms),
        this keeps the ``(name, labels)`` keys and the complete sketch
        buckets, so a worker process can ship its registry across a
        pickle boundary and the parent can :meth:`merge_state` it
        without losing percentile resolution.
        """
        return {
            "counters": [(name, lbl, value)
                         for (name, lbl), value in self._counters.items()],
            "gauges": [(name, lbl, value)
                       for (name, lbl), value in self._gauges.items()],
            "histograms": [(name, lbl, sketch.to_dict())
                           for (name, lbl), sketch
                           in self._histograms.items()],
        }

    @classmethod
    def merged(cls, states: Iterable[dict]) -> "Registry":
        """A fresh registry holding the fold of ``states``
        (:meth:`export_state` states) in order."""
        out = cls()
        for state in states:
            out.merge_state(state)
        return out

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` snapshot into this registry.

        Counters add, histogram sketches merge bucket-exactly, gauges
        take the incoming value (so folding run states in sweep order
        leaves the last run's gauge values).  Merging is deterministic
        given the fold order, and the CLI folds in sweep input order, so
        the result is the same for any ``--jobs``.
        """
        for name, lbl, value in state["counters"]:
            self.add(name, value, **dict(lbl))
        for name, lbl, value in state["gauges"]:
            self.set(name, value, **dict(lbl))
        for name, lbl, hstate in state["histograms"]:
            self._sketch((name, _label_key(dict(lbl)))).merge(
                QuantileSketch.from_dict(hstate))


def ledger_state(sim) -> dict:
    """One run's metrics: ``sim``'s component ledgers as an
    :meth:`Registry.export_state` state.

    Every component with a ``report_metrics`` method reports into a
    fresh registry, so a run's totals are summed on their own before
    :meth:`Registry.merge_state` folds them into a sweep's.
    """
    ledgers = Registry()
    for component in sim.components:
        report = getattr(component, "report_metrics", None)
        if report is not None:
            report(ledgers)
    return ledgers.export_state()
