"""Typed, serializable search space over workload/config vectors.

A *point* is a plain ``{dim_name: value}`` dict — JSON-safe, picklable,
and canonically fingerprintable, so it can cross the parallel executor's
process boundary and be frozen verbatim into a committed scenario.  Every
dimension knows how to sample, clamp, and serialize itself; mutation
kernels live in :mod:`repro.search.mutate`.

Fingerprints are the search's identity system: deduplication, the
derived per-candidate seed (``Streams(seed).child("search/<fp>")``), and
leaderboard tie-breaking all key on them, which is what makes the search
deterministic and evaluation-order-independent.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = [
    "IntDim",
    "FloatDim",
    "BoolDim",
    "SearchSpace",
    "default_space",
]


def _sig(value: float) -> float:
    """Round to 6 significant digits so serialized points stay tidy and
    a value survives a JSON round trip fingerprint-identical."""
    return float("%.6g" % value)


@dataclass(frozen=True)
class IntDim:
    """Integer dimension on ``[lo, hi]``; ``log`` samples log-uniformly
    (right for capacities spanning decades: cache entries, buffer bytes).
    """

    name: str
    lo: int
    hi: int
    log: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("%s: lo > hi" % self.name)
        if self.log and self.lo < 1:
            raise ValueError("%s: log scale needs lo >= 1" % self.name)

    def sample(self, rng: random.Random) -> int:
        if self.log:
            x = math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
            return self.clamp(int(round(x)))
        return rng.randint(self.lo, self.hi)

    def clamp(self, value) -> int:
        return max(self.lo, min(self.hi, int(round(value))))

    def to_dict(self) -> dict:
        return {"kind": "int", "name": self.name, "lo": self.lo,
                "hi": self.hi, "log": self.log}


@dataclass(frozen=True)
class FloatDim:
    """Float dimension on ``[lo, hi]``, optionally log-scaled."""

    name: str
    lo: float
    hi: float
    log: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("%s: lo > hi" % self.name)
        if self.log and self.lo <= 0:
            raise ValueError("%s: log scale needs lo > 0" % self.name)

    def sample(self, rng: random.Random) -> float:
        if self.log:
            x = math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
        else:
            x = rng.uniform(self.lo, self.hi)
        return self.clamp(x)

    def clamp(self, value) -> float:
        return _sig(max(self.lo, min(self.hi, float(value))))

    def to_dict(self) -> dict:
        return {"kind": "float", "name": self.name, "lo": self.lo,
                "hi": self.hi, "log": self.log}


@dataclass(frozen=True)
class BoolDim:
    """On/off dimension (PFC, ECN/DCQCN reaction, ...)."""

    name: str

    def sample(self, rng: random.Random) -> bool:
        return rng.random() < 0.5

    def clamp(self, value) -> bool:
        return bool(value)

    def to_dict(self) -> dict:
        return {"kind": "bool", "name": self.name}


class SearchSpace:
    """An ordered collection of named dimensions."""

    def __init__(self, dims: Sequence):
        self.dims: Dict[str, object] = {}
        for dim in dims:
            if dim.name in self.dims:
                raise ValueError("duplicate dimension: %s" % dim.name)
            self.dims[dim.name] = dim

    def __len__(self) -> int:
        return len(self.dims)

    def sample(self, rng: random.Random) -> dict:
        """One random point, dimensions drawn in definition order."""
        return {name: dim.sample(rng) for name, dim in self.dims.items()}

    def clamp(self, point: dict) -> dict:
        """Validate keys and clamp every value into its dimension's
        domain.  Unknown keys raise; missing keys raise — a point is a
        *complete* vector so fingerprints are comparable."""
        unknown = set(point) - set(self.dims)
        if unknown:
            raise ValueError("unknown dimensions: %s" % sorted(unknown))
        missing = set(self.dims) - set(point)
        if missing:
            raise ValueError("missing dimensions: %s" % sorted(missing))
        return {name: dim.clamp(point[name])
                for name, dim in self.dims.items()}

    def fingerprint(self, point: dict) -> str:
        """Stable 16-hex-digit identity of a clamped point."""
        canon = json.dumps(self.clamp(point), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def point_id(self, point: dict) -> str:
        """The ``Streams.child`` id for a candidate: ``search/<fp>``."""
        return "search/%s" % self.fingerprint(point)

    def to_dict(self) -> dict:
        return {"dims": [dim.to_dict() for dim in self.dims.values()]}


def default_space() -> SearchSpace:
    """The adversarial scenario space: workload shape x protocol knobs
    x fabric knobs, every one a plain constructor-reachable config field.

    Ranges bracket the committed figure operating points by roughly an
    order of magnitude each way, so the search can reach both benign and
    pathological regimes without leaving the model's calibrated envelope.
    """
    return SearchSpace([
        # Workload shape (fan-in / incast degree and per-node pressure).
        IntDim("n_senders", 4, 16),
        IntDim("threads_per_client", 2, 8),
        IntDim("outstanding", 1, 4),
        # Message-size mix: a bimodal small/large blend per thread.
        IntDim("req_size", 64, 4096, log=True),
        IntDim("large_size", 1024, 16384, log=True),
        FloatDim("large_fraction", 0.0, 0.5),
        # Tenant mix: zipfian skew of per-thread think time (theta=0 is
        # uniform tenants; high theta concentrates load on hot threads).
        FloatDim("zipf_theta", 0.0, 0.9),
        # Server application cost.
        FloatDim("handler_ns", 50.0, 2000.0, log=True),
        # NIC connection-cache pressure (the paper's Fig. 2 knee knob).
        IntDim("qp_cache_entries", 64, 1024, log=True),
        # FLock credit/QP-pool depth.
        IntDim("credit_batch", 4, 64, log=True),
        IntDim("qps_per_handle", 1, 8),
        # Fabric: shallow-to-deep egress buffer, ECN/DCQCN and PFC modes.
        IntDim("buffer_bytes", 4096, 131072, log=True),
        BoolDim("dcqcn"),
        BoolDim("pfc"),
        FloatDim("dcqcn_rate_ai_gbps", 1.0, 25.0, log=True),
        FloatDim("dcqcn_min_rate_gbps", 0.5, 4.0, log=True),
    ])
