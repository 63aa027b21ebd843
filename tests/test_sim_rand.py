"""Random streams, the hot-cold sampler, percentile math."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    HotColdGenerator,
    Streams,
    WordStream,
    jitter_streams,
    percentile,
    summarize_latencies,
)


#: Seeds of the exactness tests: the edges of the 48-bit jitter seeds and
#: a ``Streams`` child seed (``(seed << 32) ^ crc32(name)``, 67 bits).
EXACT_SEEDS = [0, 1, 2**48 - 1, Streams(7).word_stream("wl-19-3-18").seed]
#: randrange widths: one and three values, a TATP key space, and the
#: widths just past 2**31 and at the last one a single word can serve.
WIDTHS = [1, 3, 90_000, 2**31 + 1, 2**32 - 1]


def mixed_draws(rng, n, seed):
    """``n`` draws mixing ``random()``, ``randrange(n)`` and
    ``randrange(a, b)`` in an order fixed by ``seed``."""
    plan = random.Random(seed ^ 0x5EED)
    out = []
    for _ in range(n):
        kind, width = plan.randrange(3), plan.choice(WIDTHS)
        if kind == 0:
            out.append(rng.random())
        elif kind == 1:
            out.append(rng.randrange(width))
        else:
            start = plan.randrange(-1000, 1000)
            out.append(rng.randrange(start, start + width))
    return out


class TestStreams:
    def test_same_name_same_sequence(self):
        s = Streams(seed=42)
        a = [s.stream("x").random() for _ in range(3)]
        b = [s.stream("x").random() for _ in range(3)]
        assert a == b

    def test_different_names_differ(self):
        s = Streams(seed=42)
        assert s.stream("x").random() != s.stream("y").random()

    def test_different_seeds_differ(self):
        assert Streams(1).stream("x").random() != Streams(2).stream("x").random()

    def test_word_stream_draws_what_stream_draws(self):
        s = Streams(seed=42)
        assert mixed_draws(s.word_stream("x"), 200, 1) == \
            mixed_draws(s.stream("x"), 200, 1)


class TestWordStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**48 - 1])
    def test_matches_random_exactly(self, seed):
        """5,000 draws cross every refill boundary (32, 64, 128, ...
        words); ``drawn`` counts words, two per ``random()``."""
        stream, ref = WordStream(seed), random.Random(seed)
        assert [stream.random() for _ in range(5000)] == \
            [ref.random() for _ in range(5000)]
        assert stream.drawn == 10000

    @pytest.mark.parametrize("seed", EXACT_SEEDS)
    def test_mixed_draws_match_random(self, seed):
        stream = WordStream(seed)
        assert mixed_draws(stream, 5000, seed) == \
            mixed_draws(random.Random(seed), 5000, seed)
        # The words consumed are exactly the generator's first ``drawn``.
        ref = random.Random(seed)
        ref.getrandbits(32 * stream.drawn)
        assert stream.random() == ref.random()

    @pytest.mark.parametrize("seed", EXACT_SEEDS)
    def test_refill_words_are_the_generators_outputs(self, seed):
        """The buffer holds the next 32-bit outputs, in the order pop()
        returns them, whatever the host's byte order."""
        stream = WordStream(seed)
        stream.randrange(3)
        ref = random.Random(seed)
        expected = [ref.getrandbits(32) for _ in range(32)]
        assert list(reversed(stream._next)) == expected[stream.drawn:]

    def test_rejects_what_one_word_cannot_serve(self):
        stream = WordStream(3)
        for args in [(2**32,), (2**40,), (5, 5 + 2**32)]:
            with pytest.raises(ValueError):
                stream.randrange(*args)
        for args in [(0,), (-1,), (4, 4), (4, 3)]:
            with pytest.raises(ValueError):
                stream.randrange(*args)
            with pytest.raises(ValueError):
                random.Random(3).randrange(*args)
        assert stream.drawn == 0

    def test_holds_no_state_before_first_draw(self):
        stream = WordStream(7)
        assert stream._next is None
        stream.random()
        assert not any(isinstance(getattr(stream, name), random.Random)
                       for name in WordStream.__slots__)
        # The first refill holds 16 random() values.
        assert len(stream._next) + stream.drawn == 32

    def test_per_stream_memory(self):
        """A worker draws 11 to 26 jitter values per run (Fig. 10 point);
        after 26 draws a stream holds at most 512 B, a ``Random`` ~2.9 KB."""
        def traced_bytes_each(make, n=1000):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = [make(2**40 + i) for i in range(n)]
                used = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(kept) == n
            return used / n

        def drawn(make):
            def build(seed):
                rng = make(seed)
                for _ in range(26):
                    rng.random()
                return rng
            return build

        stream_bytes = traced_bytes_each(drawn(WordStream))
        random_bytes = traced_bytes_each(drawn(random.Random))
        assert stream_bytes <= 512
        assert random_bytes >= 2500


class TestJitterStreams:
    def test_reproduces_per_worker_seeding(self):
        """Stream k is ``WordStream`` of the k-th 48-bit draw of
        ``Random(seed)``: the per-worker streams runners drew by hand."""
        seeds = random.Random(0x7EB)
        streams = jitter_streams(0x7EB)
        for _ in range(5):
            seed = seeds.getrandbits(48)
            stream = next(streams)
            assert stream.seed == seed
            expected = random.Random(seed)
            assert [stream.random() for _ in range(40)] == \
                [expected.random() for _ in range(40)]


class TestHotCold:
    def test_smallbank_law(self):
        """4% of keys should get ~90% of accesses (paper §8.5.2)."""
        gen = HotColdGenerator(10000, hot_fraction=0.04, hot_access=0.90,
                               rng=random.Random(5))
        n_hot = gen.n_hot
        samples = [gen.next() for _ in range(30000)]
        hot_share = sum(1 for s in samples if s < n_hot) / len(samples)
        assert hot_share == pytest.approx(0.90, abs=0.02)

    def test_bounds(self):
        gen = HotColdGenerator(50, rng=random.Random(6))
        for _ in range(2000):
            assert 0 <= gen.next() < 50

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HotColdGenerator(0)
        with pytest.raises(ValueError):
            HotColdGenerator(10, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotColdGenerator(10, hot_access=1.5)


class TestPercentile:
    def test_simple_median(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 7, 9]
        assert percentile(data, 0) == 5
        assert percentile(data, 100) == 9

    def test_single_element(self):
        assert percentile([3.5], 99) == 3.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 150)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_percentile_within_range(self, values, p):
        ordered = sorted(values)
        result = percentile(ordered, p)
        assert ordered[0] <= result <= ordered[-1]

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_percentile_monotone_in_p(self, values):
        ordered = sorted(values)
        assert percentile(ordered, 50) <= percentile(ordered, 99)


class TestSummarize:
    def test_empty(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0 and summary["median"] == 0.0
        assert summary["p999"] == 0.0

    def test_basic(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["median"] == pytest.approx(2.5)
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)

    def test_p999_sits_between_p99_and_max(self):
        samples = list(float(i) for i in range(1, 2001))
        summary = summarize_latencies(samples)
        assert summary["p99"] <= summary["p999"] <= summary["max"]
        assert summary["p999"] == pytest.approx(
            percentile(sorted(samples), 99.9))
