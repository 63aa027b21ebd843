"""Deterministic random streams for simulations.

Every stochastic element (workload keys, service-time jitter, UD packet
reordering) draws from its own named child stream derived from a single
root seed, so adding a new consumer never perturbs existing ones and every
experiment is exactly reproducible.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import zlib
from array import array
from typing import Iterator, List, Optional, Protocol, Sequence

__all__ = ["Streams", "HotColdGenerator", "RandomSource", "WordStream",
           "jitter_streams"]


class Streams:
    """A factory of independent, named random streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _child_seed(self, name: str) -> int:
        return (self.seed << 32) ^ zlib.crc32(name.encode())

    def stream(self, name: str) -> random.Random:
        """A child RNG uniquely determined by (root seed, name)."""
        return random.Random(self._child_seed(name))

    def word_stream(self, name: str) -> "WordStream":
        """The same child seed's ``random()`` and ``randrange()`` draws
        as a :class:`WordStream`, for the many per-worker streams that
        need no other method."""
        return WordStream(self._child_seed(name))

    def child(self, point_id: str) -> "Streams":
        """A derived :class:`Streams` uniquely determined by (seed, id).

        The parallel sweep executor gives each sweep point a child stream
        factory keyed by the point's stable identity, so the seeds a point
        draws are a pure function of (root seed, point id) — independent
        of which worker process runs it or in what order.  The same
        derivation is used on the serial path, which is what makes
        ``--jobs N`` output byte-identical to ``--jobs 1``.

        The id is hashed in full (BLAKE2b over ``"seed:point_id"``) rather
        than through a 32-bit checksum: at 10k+ structured ids (one per
        sweep point or scenario fingerprint) a truncated hash has a
        non-negligible birthday-collision risk that would silently
        correlate two points' randomness.
        """
        material = ("%d:%s" % (self.seed, point_id)).encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        child_seed = int.from_bytes(digest, "big")
        # Fold to a stable, positive 63-bit value so the child can itself
        # derive grandchildren without unbounded seed growth.
        return Streams(child_seed & 0x7FFFFFFFFFFFFFFF)


class RandomSource(Protocol):
    """The two draws the workload generators make: ``random.Random`` and
    :class:`WordStream` both provide them."""

    def random(self) -> float: ...

    def randrange(self, start: int, stop: Optional[int] = None) -> int: ...


#: The fewest 32-bit words a refill fetches: 16 ``random()`` values.
_MIN_REFILL_WORDS = 32


class WordStream:
    """``random.Random(seed)``'s exact ``random()`` and ``randrange()``
    draws, without keeping the Mersenne Twister between draws.

    A ``Random`` is 2.9 KB; a stream holds the seed, the number of 32-bit
    Mersenne Twister outputs (words) consumed, and an ``array('I')`` of
    the next few.  The draws follow CPython's code (3.9 to 3.12):
    ``random()`` takes two words ``a, b`` and returns
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; ``randrange`` repeats
    ``getrandbits(k)``, the top ``k = width.bit_length()`` bits of one
    word, until the value is below the width.  When the buffer runs out
    the stream rebuilds ``Random(seed)``, skips the words already
    consumed with one ``getrandbits(32 * drawn)`` call (which consumes
    exactly ``drawn`` words), fetches ``max(32, drawn)`` more and drops
    the ``Random``, so ``n`` words rebuild it ``1 + log2(n / 32)`` times.
    Meant for the many per-worker streams that draw a few dozen values
    per run.
    """

    __slots__ = ("seed", "drawn", "_next")

    def __init__(self, seed: int):
        self.seed = seed
        self.drawn = 0
        self._next = None

    def random(self) -> float:
        buf = self._next
        if buf is None or len(buf) < 2:
            # A refill starts at word ``drawn``, so a word left over here
            # is fetched again, not skipped.
            buf = self._refill()
        self.drawn += 2
        a = buf.pop() >> 5
        b = buf.pop() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        """An int uniform in ``[0, start)``, or in ``[start, stop)``."""
        if stop is None:
            start, width = 0, start
        else:
            width = stop - start
        if width <= 0:
            raise ValueError("empty range for randrange()")
        if width >> 32:
            raise ValueError("randrange() width must be below 2**32")
        shift = 32 - width.bit_length()
        buf = self._next
        while True:
            if not buf:
                buf = self._refill()
            self.drawn += 1
            r = buf.pop() >> shift
            if r < width:
                return start + r

    def _refill(self) -> array:
        rng = random.Random(self.seed)
        if self.drawn:
            rng.getrandbits(32 * self.drawn)
        n = max(_MIN_REFILL_WORDS, self.drawn)
        # getrandbits puts the first word it makes lowest, so the words
        # read most significant first list the last one first, and pop()
        # returns them in the order they were made, on any host.
        bits = rng.getrandbits(32 * n).to_bytes(4 * n, "big")
        self._next = buf = array("I", struct.unpack(">%dI" % n, bits))
        return buf


def jitter_streams(seed: int) -> Iterator[WordStream]:
    """One :class:`WordStream` per ``next()``, each seeded with the
    next 48 bits of ``random.Random(seed)``: the think-time jitter of a
    run's closed-loop workers, one stream per worker in spawn order."""
    rng = random.Random(seed)
    while True:
        yield WordStream(rng.getrandbits(48))


class HotColdGenerator:
    """Hot/cold key sampler: ``hot_fraction`` of keys get ``hot_access``
    of accesses.

    Smallbank in the paper uses "4% of accounts are accessed by 90% of
    transactions"; this generator reproduces exactly that law.
    """

    __slots__ = ("n", "n_hot", "hot_access", "rng")

    def __init__(
        self,
        n: int,
        hot_fraction: float = 0.04,
        hot_access: float = 0.90,
        rng: Optional[RandomSource] = None,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < hot_fraction <= 1:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0 <= hot_access <= 1:
            raise ValueError("hot_access must be in [0, 1]")
        self.n = n
        self.n_hot = max(1, int(n * hot_fraction))
        self.hot_access = hot_access
        self.rng = rng or random.Random(0)

    def next(self) -> int:
        if self.rng.random() < self.hot_access:
            return self.rng.randrange(self.n_hot)
        if self.n_hot >= self.n:
            return self.rng.randrange(self.n)
        return self.rng.randrange(self.n_hot, self.n)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    # Numerically stable form: exact when the two anchors are equal.
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def summarize_latencies(samples: List[float]) -> dict:
    """Median/p99/p999/mean/min/max summary used by every harness."""
    if not samples:
        return {"count": 0, "median": 0.0, "p99": 0.0, "p999": 0.0,
                "mean": 0.0, "min": 0.0, "max": 0.0}
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "median": percentile(ordered, 50.0),
        "p99": percentile(ordered, 99.0),
        "p999": percentile(ordered, 99.9),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
    }
