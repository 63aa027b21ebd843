"""Bounded-memory, mergeable quantile sketches (DDSketch-style).

The simulation observes millions of latency samples per sweep; keeping
them all is unaffordable and keeping "the first N" (the seed-era
sample reservoir) is a *start-of-run bias* — warmup transients
dominate and the steady state past sample N is invisible.  A
:class:`QuantileSketch` replaces the buffer with logarithmic buckets:

* **Accuracy guarantee.**  With relative accuracy ``alpha`` (default
  1%), bucket ``i`` covers the value interval ``(gamma^(i-1), gamma^i]``
  where ``gamma = (1 + alpha) / (1 - alpha)``.  Every value in a bucket
  is within ``alpha`` (relative) of the bucket's midpoint estimate
  ``2 * gamma^i / (gamma + 1)``, so the value returned for *any* rank —
  p50, p99, p999, ... — is within ``alpha`` relative error of the exact
  order statistic at that rank.  Equivalently, the returned value's rank
  in the exact data is the target rank up to the mass of one
  ``±alpha``-wide value band.  The property tests in
  ``tests/test_obs_sketch.py`` assert the bound against exact
  percentiles on adversarial (zipfian, bimodal, constant) inputs.
* **Bounded memory.**  The bucket count is at most
  ``ceil(log(max/min) / log(gamma)) + 3`` regardless of how many values
  are observed — about 1 000 buckets for nine decades of dynamic range
  at 1% accuracy.  Arbitrarily long runs stay flat.
* **Exactly mergeable.**  Buckets are integer counts, so merging is
  bucket-wise addition: associative, commutative, and bit-exact.  A
  sweep's worker processes can sketch independently and the merged
  sketch is *identical* (not just statistically close) to a single
  sketch that observed every value — the property
  ``--jobs N`` percentile reporting relies on.

Counts, sum, min and max are tracked exactly alongside the buckets, so
means and extreme quantiles (p0/p100) are never approximated.

Zero and negative values get their own store (log buckets cannot hold
them); simulation metrics are almost always positive, but a sketch that
silently corrupted on a zero would be a trap.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ACCURACY"]

#: Default relative accuracy: every reported quantile is within 1% of
#: the exact order statistic.
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch with exact moments."""

    __slots__ = ("relative_accuracy", "_gamma", "_log_gamma", "count",
                 "total", "min", "max", "zero_count", "buckets",
                 "neg_buckets")

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.zero_count = 0
        #: Positive-value buckets: index -> integer count.
        self.buckets: Dict[int, int] = {}
        #: Negative-value buckets over ``|value|`` (rarely used).
        self.neg_buckets: Dict[int, int] = {}

    # -- recording ------------------------------------------------------

    def _index(self, magnitude: float) -> int:
        """Bucket index of a positive magnitude: ``ceil(log_g(m))``."""
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _estimate(self, index: int) -> float:
        """Midpoint estimate of bucket ``index``: within ``alpha``
        relative error of every value the bucket covers."""
        return 2.0 * math.exp(index * self._log_gamma) / (self._gamma + 1.0)

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``n`` occurrences of ``value``."""
        if n <= 0:
            return
        value = float(value)
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            idx = self._index(value)
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        elif value < 0.0:
            idx = self._index(-value)
            self.neg_buckets[idx] = self.neg_buckets.get(idx, 0) + n
        else:
            self.zero_count += n

    # -- queries --------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact arithmetic mean (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1], within ``alpha``
        relative error of the exact order statistic at rank
        ``q * (count - 1)``.  Returns 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        cum = 0
        # Ascending value order: most-negative first (descending |v|
        # bucket index), then zeros, then positives ascending.
        for idx in sorted(self.neg_buckets, reverse=True):
            cum += self.neg_buckets[idx]
            if cum > rank:
                return self._clamp(-self._estimate(idx))
        cum += self.zero_count
        if cum > rank:
            return self._clamp(0.0)
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum > rank:
                return self._clamp(self._estimate(idx))
        return self.max  # pragma: no cover - guarded by count above

    def percentile(self, p: float) -> float:
        """The value at percentile ``p`` in [0, 100] (see
        :meth:`quantile`)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("p must be in [0, 100]")
        return self.quantile(p / 100.0)

    def _clamp(self, estimate: float) -> float:
        """Pin estimates inside the exactly tracked [min, max] range."""
        if estimate < self.min:
            return self.min
        if estimate > self.max:
            return self.max
        return estimate

    # -- merging --------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (bucket-wise integer adds:
        associative, commutative, and exact).  Returns self."""
        if not isinstance(other, QuantileSketch):
            raise TypeError("can only merge QuantileSketch instances")
        if not math.isclose(other.relative_accuracy, self.relative_accuracy,
                            rel_tol=1e-12):
            raise ValueError(
                "cannot merge sketches with different accuracies "
                "(%g vs %g)" % (self.relative_accuracy,
                                other.relative_accuracy))
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.zero_count += other.zero_count
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        for idx, n in other.neg_buckets.items():
            self.neg_buckets[idx] = self.neg_buckets.get(idx, 0) + n
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]) -> "QuantileSketch":
        """A fresh sketch holding the fold of ``sketches`` in order (the
        first one's accuracy; the default when there are none)."""
        out: Optional[QuantileSketch] = None
        for sk in sketches:
            if out is None:
                out = cls(sk.relative_accuracy)
            out.merge(sk)
        return out if out is not None else cls()

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON/pickle-safe snapshot of the full sketch state.

        Bucket keys are serialized as strings (JSON objects cannot key
        on integers) in sorted order, so two sketches with identical
        contents serialize identically regardless of insertion order.
        """
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero_count": self.zero_count,
            "buckets": {str(i): self.buckets[i]
                        for i in sorted(self.buckets)},
            "neg_buckets": {str(i): self.neg_buckets[i]
                            for i in sorted(self.neg_buckets)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sk = cls(data.get("relative_accuracy", DEFAULT_RELATIVE_ACCURACY))
        sk.count = int(data["count"])
        sk.total = float(data["total"])
        sk.min = float("inf") if data.get("min") is None else float(data["min"])
        sk.max = (float("-inf") if data.get("max") is None
                  else float(data["max"]))
        sk.zero_count = int(data.get("zero_count", 0))
        sk.buckets = {int(i): int(n)
                      for i, n in data.get("buckets", {}).items()}
        sk.neg_buckets = {int(i): int(n)
                          for i, n in data.get("neg_buckets", {}).items()}
        return sk

    def __repr__(self) -> str:
        return ("QuantileSketch(n=%d, buckets=%d, alpha=%g)"
                % (self.count,
                   len(self.buckets) + len(self.neg_buckets)
                   + (1 if self.zero_count else 0),
                   self.relative_accuracy))
