"""Typed metrics instruments and the central registry.

Every layer of the stack (RNIC caches, PCIe link, fabric, verbs queues,
FLock schedulers) exposes its hot-path statistics through three typed
instruments rather than ad-hoc attributes:

* :class:`Counter` — a monotonically increasing total (messages sent,
  cache misses, PCIe stall nanoseconds, ...),
* :class:`Gauge` — a point-in-time value, either set explicitly or backed
  by a zero-argument callable sampled at snapshot time (queue depth,
  pipeline occupancy), and
* :class:`Histogram` — a distribution with exact online moments plus a
  bounded-memory mergeable :class:`repro.obs.sketch.QuantileSketch` for
  percentiles (coalescing degree, CQ poll batch size, latencies).

Instruments are created through a :class:`Registry`, memoized by
``(name, labels)`` so two components asking for the same metric share one
instrument.  The default registry installed on every simulator is the
:class:`NullRegistry`, whose instruments are shared no-op singletons: the
hot paths always call ``counter.inc()`` unconditionally, and the disabled
path costs one empty method call — no branches, no allocation, no dict
lookups (components cache their instruments at construction time).

This module is intentionally dependency-free (stdlib only) so the
simulation kernel itself can import it without cycles.
"""

from __future__ import annotations

import io
import json
from typing import Any, Callable, Dict, Optional, Tuple

from .sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NullCounter",
    "NullGauge",
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


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Optional[Dict[str, Any]] = None):
        self.name = name
        self.labels = labels or {}
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (default 1) to the total."""
        self.value += n

    def __repr__(self) -> str:
        return "Counter(%s=%g)" % (_format_name(self.name, self.labels), self.value)


class Gauge:
    """A point-in-time value, set directly or read from a callable."""

    __slots__ = ("name", "labels", "_value", "fn")

    def __init__(self, name: str, labels: Optional[Dict[str, Any]] = None,
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.labels = labels or {}
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        """Record the current value."""
        self._value = value

    @property
    def value(self) -> float:
        """The current value (sampling the backing callable if present)."""
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def __repr__(self) -> str:
        return "Gauge(%s=%g)" % (_format_name(self.name, self.labels), self.value)


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
    """Central factory and store for named instruments.

    Instruments are memoized by ``(name, labels)``: asking twice returns
    the same object, so components on different nodes can either share a
    global total (no labels) or keep per-node series (e.g.
    ``registry.counter("pcie.reads", nic="server0.rnic")``).
    """

    enabled = True

    def __init__(self):
        self._counters: Dict[Tuple, Counter] = {}
        self._gauges: Dict[Tuple, Gauge] = {}
        self._histograms: Dict[Tuple, Histogram] = {}

    # -- factories ------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name`` with optional labels."""
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = Counter(name, labels)
            self._counters[key] = inst
        return inst

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels) -> Gauge:
        """Get or create the gauge ``name``; ``fn`` backs it if given."""
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = Gauge(name, labels, fn=fn)
            self._gauges[key] = inst
        elif fn is not None:
            inst.fn = fn
        return inst

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram ``name`` with optional labels."""
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = Histogram(name, labels)
            self._histograms[key] = inst
        return inst

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instrument values keyed by display name."""
        return {
            "counters": {
                _format_name(c.name, c.labels): c.value
                for c in self._counters.values()
            },
            "gauges": {
                _format_name(g.name, g.labels): g.value
                for g in self._gauges.values()
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
        """A picklable snapshot of every instrument's *full* state.

        Unlike :meth:`snapshot` (display names, summarized histograms),
        this keeps the ``(name, labels)`` keys and the complete sketch
        buckets, so a worker process can ship its registry across a
        pickle boundary and the parent can :meth:`merge_state` it
        without losing percentile resolution.  Gauges are sampled (their
        backing callables cannot travel between processes).
        """
        return {
            "counters": [(c.name, key[1], c.value)
                         for key, c in self._counters.items()],
            "gauges": [(g.name, key[1], g.value)
                       for key, g in self._gauges.items()],
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
        for name, lbl, value in state["counters"]:
            self.counter(name, **dict(lbl)).value += value
        for name, lbl, value in state["gauges"]:
            self.gauge(name, **dict(lbl)).set(value)
        for name, lbl, hstate in state["histograms"]:
            self.histogram(name, **dict(lbl)).merge_state(hstate)


class NullCounter:
    """No-op counter: the disabled hot path."""

    __slots__ = ()
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Discard the increment."""


class NullGauge:
    """No-op gauge: the disabled hot path."""

    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""


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


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry stub handing out shared no-op instruments.

    Installed on every :class:`repro.sim.Simulator` by default, so
    instrumented components can cache and call their instruments
    unconditionally at near-zero cost.
    """

    enabled = False

    def counter(self, name: str, **labels) -> NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels) -> NullGauge:
        """The shared no-op gauge (the callable is never sampled)."""
        return _NULL_GAUGE

    def histogram(self, name: str, **labels) -> NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """An empty snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self) -> str:
        """An empty JSON snapshot."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Header-only CSV."""
        return "type,name,field,value\n"


#: Shared stub installed on simulators constructed without telemetry.
null_registry = NullRegistry()
