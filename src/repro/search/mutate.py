"""Per-dimension mutation kernels for the hill-climb/annealing loop.

Kernels are local moves sized to each dimension's scale: log dimensions
step by a random factor in [1/2, 2] (one octave), linear numerics step
within an eighth of the range, booleans flip.  A mutation always
changes the clamped point when the dimension has more than one
representable value — the search relies on that to make progress
instead of re-fingerprinting the parent.
"""

from __future__ import annotations

import random

from .space import BoolDim, FloatDim, IntDim, SearchSpace

__all__ = ["mutate_point", "mutate_value"]


def mutate_value(dim, value, rng: random.Random):
    """One local move of ``value`` within ``dim`` (clamped)."""
    if isinstance(dim, BoolDim):
        return not bool(value)
    if isinstance(dim, IntDim):
        if dim.log:
            proposal = dim.clamp(value * 2.0 ** rng.uniform(-1.0, 1.0))
        else:
            step = max(1, (dim.hi - dim.lo) // 8)
            proposal = dim.clamp(value + rng.randint(-step, step))
        if proposal == dim.clamp(value) and dim.lo < dim.hi:
            # Forced nudge: a no-op mutation would just re-evaluate the
            # parent's fingerprint and burn a generation.
            proposal = dim.clamp(value + (1 if proposal < dim.hi else -1))
        return proposal
    if isinstance(dim, FloatDim):
        if dim.log:
            proposal = dim.clamp(value * 2.0 ** rng.uniform(-1.0, 1.0))
        else:
            span = dim.hi - dim.lo
            proposal = dim.clamp(value + rng.uniform(-span / 8.0,
                                                     span / 8.0))
        if proposal == dim.clamp(value) and dim.lo < dim.hi:
            span = dim.hi - dim.lo
            nudge = span / 16.0 if dim.clamp(value) < dim.hi else -span / 16.0
            proposal = dim.clamp(value + nudge)
        return proposal
    raise TypeError("no mutation kernel for %r" % (type(dim).__name__,))


def mutate_point(space: SearchSpace, point: dict,
                 rng: random.Random) -> dict:
    """Mutate 1-2 dimensions of ``point``; returns a new clamped point."""
    names = list(space.dims)
    k = min(1 if rng.random() < 0.7 else 2, len(names))
    chosen = rng.sample(names, k)
    mutated = dict(point)
    for name in chosen:
        mutated[name] = mutate_value(space.dims[name], point[name], rng)
    return space.clamp(mutated)
