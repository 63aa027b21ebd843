"""Discrete-event simulation kernel (events, processes, resources, RNG)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .rand import (
    HotColdGenerator,
    RandomSource,
    Streams,
    WordStream,
    jitter_streams,
    percentile,
    summarize_latencies,
)
from .resources import Resource, Store, TokenBucket, TrackedStore

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "HotColdGenerator",
    "Process",
    "RandomSource",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Streams",
    "Timeout",
    "TokenBucket",
    "TrackedStore",
    "WordStream",
    "jitter_streams",
    "percentile",
    "summarize_latencies",
]
