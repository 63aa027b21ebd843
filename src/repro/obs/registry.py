"""The metrics registry: counters, gauges and histograms by name.

Every count a run reports is kept once, by the component that owns it:
``Rnic.messages_tx``, ``CacheStats.misses``, ``SwitchPort.ecn_marks``
and so on are plain integer (or float) attributes bumped on the hot
path.  A :class:`Registry` turns those ledgers into named series only
when a simulator's run is over (:meth:`Registry.attach`): each
registered component reports its ledgers through ``report_metrics``,

* as **counters** — totals summed over components and over the runs
  a registry has seen (messages sent, cache misses, PCIe stall ns) —
  and
* as **gauges** — a point-in-time value per label set, the last run's
  (queue depth, pipeline occupancy, link utilization).

Distributions have no ledger, so a :class:`Histogram` stays a live
instrument: exact online moments plus a bounded-memory mergeable
:class:`repro.obs.sketch.QuantileSketch` for percentiles (coalescing
degree, CQ poll batch size).  Histograms are memoized by ``(name,
labels)``; components fetch theirs at construction and observe only
when the simulator is instrumented.  The default registry on every
simulator is the :class:`NullRegistry`, which hands out one shared
no-op histogram.

This module is intentionally dependency-free (stdlib only) so the
simulation kernel itself can import it without cycles.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Tuple

from .sketch import QuantileSketch

__all__ = [
    "Histogram",
    "NullHistogram",
    "NullRegistry",
    "Registry",
    "SUMMARY_KEYS",
    "null_registry",
]

#: The shared summary schema: every histogram summary — live or null —
#: carries exactly these keys in this order, and ``to_csv`` emits one
#: row per key.  A test pins live and null implementations in lockstep.
SUMMARY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p99", "p999")


def _zero_summary() -> Dict[str, float]:
    """The canonical all-zero summary (count is an int, rest floats)."""
    out: Dict[str, float] = {}
    for key in SUMMARY_KEYS:
        out[key] = 0 if key == "count" else 0.0
    return out


def _label_key(labels: Dict[str, Any]) -> Tuple:
    """Canonical hashable form of a label set."""
    return tuple(sorted(labels.items()))


def _format_name(name: str, labels: Dict[str, Any]) -> str:
    """Prometheus-style display name: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join("%s=%s" % (k, v) for k, v in sorted(labels.items()))
    return "%s{%s}" % (name, inner)


class Histogram:
    """A distribution: exact count/sum/min/max plus a mergeable sketch.

    Percentiles come from a bounded-memory
    :class:`repro.obs.sketch.QuantileSketch` (<=1% relative error at
    every rank), replacing the seed-era first-N sample buffer whose
    percentiles were biased toward the start of the run.  Because the
    sketch merges exactly, parallel sweep workers can ship their
    histograms back and the merged percentiles are identical to a
    single-process run.  The sketch's memory is bounded by its bucket
    count, not a sample cap.
    """

    __slots__ = ("name", "labels", "sketch")

    def __init__(self, name: str, labels: Optional[Dict[str, Any]] = None):
        self.name = name
        self.labels = labels or {}
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sketch.observe(value)

    @property
    def count(self) -> int:
        """Exact number of observations."""
        return self.sketch.count

    @property
    def total(self) -> float:
        """Exact sum of all observations."""
        return self.sketch.total

    @property
    def min(self) -> float:
        """Exact minimum (inf when empty)."""
        return self.sketch.min

    @property
    def max(self) -> float:
        """Exact maximum (-inf when empty)."""
        return self.sketch.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.sketch.mean

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100]; exact at the endpoints, within
        the sketch's relative-error bound everywhere else."""
        if not self.sketch.count:
            return 0.0
        if p <= 0:
            return self.sketch.min
        if p >= 100:
            return self.sketch.max
        return self.sketch.percentile(p)

    def summary(self) -> Dict[str, float]:
        """The :data:`SUMMARY_KEYS` schema as a plain dict."""
        if not self.sketch.count:
            return _zero_summary()
        return {
            "count": self.sketch.count,
            "sum": self.sketch.total,
            "min": self.sketch.min,
            "max": self.sketch.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's sketch into this one (exact)."""
        self.sketch.merge(other.sketch)
        return self

    def state(self) -> dict:
        """Picklable full state (see :meth:`QuantileSketch.to_dict`)."""
        return self.sketch.to_dict()

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`state` snapshot into this histogram."""
        self.sketch.merge(QuantileSketch.from_dict(state))

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%g)" % (
            _format_name(self.name, self.labels), self.count, self.mean)


class Registry:
    """Named counters, gauges and histograms.

    Counters and gauges are plain values keyed by ``(name, labels)``:
    :meth:`add` sums into a counter, :meth:`set` overwrites a gauge.
    Components never call either on the hot path; they report their
    ledgers once per run through ``report_metrics`` when the registry
    lets go of their simulator (see :meth:`attach`).  Histograms are
    live instruments, memoized by ``(name, labels)``.
    """

    enabled = True

    def __init__(self):
        self._counters: Dict[Tuple, float] = {}
        self._gauges: Dict[Tuple, float] = {}
        self._histograms: Dict[Tuple, Histogram] = {}
        #: The attached simulator whose ledgers are not folded in yet.
        self._held = None

    def add(self, name: str, value: float, **labels) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Record ``value`` as the gauge ``name``."""
        self._gauges[(name, _label_key(labels))] = float(value)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram ``name`` with optional labels."""
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = Histogram(name, labels)
            self._histograms[key] = inst
        return inst

    # -- run ledgers ----------------------------------------------------

    def attach(self, sim) -> None:
        """Take ``sim``'s ledgers at the end of its run.

        Folds the previously attached simulator first.  Its ledgers are
        folded exactly once: here, or when the registry is next read
        (:meth:`snapshot`, :meth:`export_state`) or merged into.
        """
        self._fold()
        self._held = sim

    def _fold(self) -> None:
        """Add the held simulator's ledgers to the counters and gauges.

        The run's totals are summed on their own first, so a run folded
        here adds the same float to each counter that a run exported
        from a worker process adds through :meth:`merge_state`.
        """
        sim, self._held = self._held, None
        if sim is None:
            return
        ledgers = Registry()
        for component in sim.components:
            report = getattr(component, "report_metrics", None)
            if report is not None:
                report(ledgers)
        self.merge_state(ledgers.export_state())

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All values keyed by display name."""
        self._fold()
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
                _format_name(h.name, h.labels): h.summary()
                for h in self._histograms.values()
            },
        }

    def to_json(self) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The snapshot as flat CSV rows: type,name,field,value."""
        out = io.StringIO()
        out.write("type,name,field,value\n")
        snap = self.snapshot()
        for name in sorted(snap["counters"]):
            out.write("counter,%s,value,%g\n" % (name, snap["counters"][name]))
        for name in sorted(snap["gauges"]):
            out.write("gauge,%s,value,%g\n" % (name, snap["gauges"][name]))
        for name in sorted(snap["histograms"]):
            for field in SUMMARY_KEYS:
                out.write("histogram,%s,%s,%g\n"
                          % (name, field, snap["histograms"][name][field]))
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
        self._fold()
        return {
            "counters": [(name, lbl, value)
                         for (name, lbl), value in self._counters.items()],
            "gauges": [(name, lbl, value)
                       for (name, lbl), value in self._gauges.items()],
            "histograms": [(h.name, key[1], h.state())
                           for key, h in self._histograms.items()],
        }

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` snapshot into this registry.

        Counters add, histogram sketches merge bucket-exactly, gauges
        take the incoming value (so folding worker states in input
        order leaves the last sweep point's gauge values — the same
        values a serial run would report at the end).  Merging is
        deterministic given the fold order; the parallel sweep executor
        folds worker states in input order.
        """
        self._fold()
        for name, lbl, value in state["counters"]:
            self.add(name, value, **dict(lbl))
        for name, lbl, value in state["gauges"]:
            self.set(name, value, **dict(lbl))
        for name, lbl, hstate in state["histograms"]:
            self.histogram(name, **dict(lbl)).merge_state(hstate)


class NullHistogram:
    """No-op histogram: the disabled hot path."""

    __slots__ = ()
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def percentile(self, p: float) -> float:
        """Nothing was recorded."""
        return 0.0

    def summary(self) -> Dict[str, float]:
        """An all-zero summary over the shared :data:`SUMMARY_KEYS`."""
        return _zero_summary()


_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry stub handing out the shared no-op histogram.

    Installed on every :class:`repro.sim.Simulator` by default; nothing
    attaches it to a simulator, so no ledger is ever folded into it.
    """

    enabled = False

    def histogram(self, name: str, **labels) -> NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """An empty snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared stub installed on simulators constructed without telemetry.
null_registry = NullRegistry()
