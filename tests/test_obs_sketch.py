"""Property tests for the mergeable quantile sketch.

The sketch's contract has two halves and this file pins both:

* **Accuracy** — every reported quantile is within ``alpha`` relative
  error of an exact order statistic at that rank, on adversarial
  distributions (zipfian, bimodal, constant, heavy-tailed) and on
  hypothesis-generated inputs.
* **Mergeability** — bucket-wise merge is associative, commutative, and
  produces a sketch *identical* (bucket identity, exact moments) to one
  that observed every value directly.  This is the property the
  ``--jobs N`` percentile-reporting path stands on.

A final class pins the summary schema a registry histogram reports,
through :meth:`repro.obs.Registry.observe` and the snapshot.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import SUMMARY_KEYS, Registry
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

ALPHA = DEFAULT_RELATIVE_ACCURACY
PERCENTILES = (50.0, 99.0, 99.9)


def _sketch(values, alpha=ALPHA):
    sk = QuantileSketch(alpha)
    for v in values:
        sk.observe(v)
    return sk


def _rel_err(estimate, exact):
    if exact == 0.0:
        return abs(estimate)
    return abs(estimate - exact) / abs(exact)


def _assert_rank_error_bounded(values, alpha=ALPHA):
    """The documented guarantee: ``percentile(p)`` is within ``alpha``
    relative error of the exact order statistic at rank
    ``p/100 * (n-1)`` (floor or ceiling index — the fractional rank
    straddles two elements)."""
    sk = _sketch(values, alpha)
    s = sorted(values)
    for p in PERCENTILES:
        rank = (p / 100.0) * (len(s) - 1)
        exact_lo = s[math.floor(rank)]
        exact_hi = s[math.ceil(rank)]
        est = sk.percentile(p)
        err = min(_rel_err(est, exact_lo), _rel_err(est, exact_hi))
        assert err <= alpha + 1e-9, (
            "p%g: estimate %g vs exact [%g, %g] (err %g > alpha %g)"
            % (p, est, exact_lo, exact_hi, err, alpha))


def _zipfian(n=5000, seed=7):
    """Zipf-weighted latencies: many fast ops, a power-law tail."""
    rnd = random.Random(seed)
    ranks = range(1, 501)
    weights = [1.0 / (k ** 1.2) for k in ranks]
    return [1_000.0 * k for k in rnd.choices(ranks, weights, k=n)]


def _bimodal(n=5000, seed=11):
    """Cache-hit/cache-miss shape: 95% near 1us, 5% near 1ms."""
    rnd = random.Random(seed)
    return [rnd.uniform(900.0, 1_100.0) if rnd.random() < 0.95
            else rnd.uniform(900_000.0, 1_100_000.0) for _ in range(n)]


def _heavy_tail(n=5000, seed=13):
    rnd = random.Random(seed)
    return [1_000.0 * rnd.paretovariate(1.5) for _ in range(n)]


class TestAccuracy:
    """<=1% relative rank error at p50/p99/p999 vs exact percentiles."""

    @pytest.mark.parametrize("dist", [
        _zipfian, _bimodal, _heavy_tail,
        lambda: [42.0] * 1000,                       # constant
        lambda: [float(i + 1) for i in range(5000)], # uniform ramp
    ])
    def test_adversarial_distributions(self, dist):
        _assert_rank_error_bounded(dist())

    def test_constant_input_is_exact(self):
        sk = _sketch([3.5] * 100)
        for p in PERCENTILES:
            assert sk.percentile(p) == 3.5

    def test_negative_values_keep_the_bound(self):
        rnd = random.Random(3)
        values = [rnd.uniform(-1e6, -1.0) for _ in range(2000)]
        _assert_rank_error_bounded(values)

    def test_endpoints_clamped_to_exact_extremes(self):
        sk = _sketch([1.0, 10.0, 100.0])
        assert sk.quantile(0.0) == 1.0
        assert sk.quantile(1.0) == 100.0

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e12),
                    min_size=1, max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_positive_floats(self, values):
        _assert_rank_error_bounded(values)

    @given(st.lists(st.one_of(
        st.floats(min_value=1e-3, max_value=1e9),
        st.floats(min_value=-1e9, max_value=-1e-3),
        st.just(0.0)), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hypothesis_mixed_sign_and_zero(self, values):
        _assert_rank_error_bounded(values)


class TestMoments:
    def test_count_sum_min_max_are_exact(self):
        values = _zipfian(n=1000)
        sk = _sketch(values)
        assert sk.count == len(values)
        assert sk.total == pytest.approx(sum(values), rel=1e-12)
        assert sk.min == min(values)
        assert sk.max == max(values)
        assert sk.mean == pytest.approx(sum(values) / len(values))

    def test_weighted_observe(self):
        sk = QuantileSketch()
        sk.observe(5.0, n=10)
        assert sk.count == 10
        assert sk.total == 50.0
        assert sk.percentile(50) == 5.0

    def test_nonpositive_weight_ignored(self):
        sk = QuantileSketch()
        sk.observe(5.0, n=0)
        sk.observe(5.0, n=-3)
        assert sk.count == 0


def _bucket_identity(sk):
    """Everything except ``total`` (float addition order may differ by
    an ulp across merge orders; buckets and counts may not differ at
    all)."""
    d = sk.to_dict()
    total = d.pop("total")
    return d, total


def _assert_same_sketch(a, b):
    da, ta = _bucket_identity(a)
    db, tb = _bucket_identity(b)
    assert da == db
    assert ta == pytest.approx(tb, rel=1e-12, abs=1e-9)


chunks = st.lists(
    st.lists(st.floats(min_value=1e-3, max_value=1e9), max_size=60),
    min_size=3, max_size=3)


def _fold(sketches):
    """A fresh default-accuracy sketch holding the fold of
    ``sketches`` in order."""
    out = QuantileSketch()
    for sk in sketches:
        out.merge(sk)
    return out


class TestMerge:
    def test_merged_equals_whole_data_sketch(self):
        values = _bimodal(n=3000)
        whole = _sketch(values)
        parts = [_sketch(values[i::4]) for i in range(4)]
        _assert_same_sketch(_fold(parts), whole)

    @given(chunks)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, parts):
        left = _sketch(parts[0]).merge(_sketch(parts[1])) \
                                .merge(_sketch(parts[2]))
        right = _sketch(parts[0]).merge(
            _sketch(parts[1]).merge(_sketch(parts[2])))
        _assert_same_sketch(left, right)

    @given(chunks)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, parts):
        order_ab = _fold([_sketch(p) for p in parts])
        order_ba = _fold([_sketch(p) for p in reversed(parts)])
        _assert_same_sketch(order_ab, order_ba)

    def test_merge_returns_self_and_accumulates(self):
        a, b = _sketch([1.0, 2.0]), _sketch([3.0])
        assert a.merge(b) is a
        assert a.count == 3

    def test_mismatched_accuracy_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merge_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            QuantileSketch().merge({"count": 3})

    def test_merged_of_nothing_is_empty(self):
        sk = QuantileSketch().merge(QuantileSketch())
        assert sk.count == 0
        assert sk.quantile(0.5) == 0.0


class TestEdgesAndSerialization:
    def test_empty_sketch_quantile_is_zero(self):
        assert QuantileSketch().quantile(0.5) == 0.0
        assert QuantileSketch().mean == 0.0

    def test_quantile_range_checked(self):
        sk = _sketch([1.0])
        with pytest.raises(ValueError):
            sk.quantile(1.5)
        with pytest.raises(ValueError):
            sk.percentile(101.0)

    def test_bad_accuracy_rejected(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                QuantileSketch(alpha)

    def test_memory_stays_bounded(self):
        """Nine decades of dynamic range, 100k observations: the bucket
        count stays near ``log(max/min)/log(gamma)``, nowhere near n."""
        rnd = random.Random(5)
        sk = QuantileSketch()
        for _ in range(100_000):
            sk.observe(math.exp(rnd.uniform(0.0, math.log(1e9))))
        assert len(sk.buckets) < 1_100

    def test_roundtrip_preserves_everything(self):
        sk = _sketch(_zipfian(n=500) + [0.0, -3.0])
        clone = QuantileSketch.from_dict(
            json.loads(json.dumps(sk.to_dict())))
        assert clone.to_dict() == sk.to_dict()
        for p in PERCENTILES:
            assert clone.percentile(p) == sk.percentile(p)

    def test_empty_roundtrip(self):
        clone = QuantileSketch.from_dict(QuantileSketch().to_dict())
        assert clone.count == 0
        assert clone.min == float("inf")
        assert clone.quantile(0.5) == 0.0

    def test_to_dict_is_insertion_order_independent(self):
        fwd = _sketch([1.0, 1e6, 1e3])
        rev = _sketch([1e3, 1e6, 1.0])
        assert json.dumps(fwd.to_dict()) == json.dumps(rev.to_dict())

    def test_repr_mentions_size(self):
        assert "n=3" in repr(_sketch([1.0, 2.0, 0.0]))


class TestSummarySchemaLockstep:
    """A registry histogram's summary keeps the shared schema."""

    @staticmethod
    def _summary(values):
        reg = Registry()
        reg.observe("lat", 0.0, 0)
        for v in values:
            reg.observe("lat", v)
        return reg.snapshot()["histograms"]["lat"]

    def test_keys_identical_and_ordered(self):
        assert tuple(self._summary([5.0])) == SUMMARY_KEYS
        assert tuple(self._summary([])) == SUMMARY_KEYS

    def test_empty_histogram_summary_is_all_zero(self):
        summary = self._summary([])
        assert summary == dict.fromkeys(SUMMARY_KEYS, 0.0)
        assert type(summary["count"]) is int
        assert all(type(summary[k]) is float for k in SUMMARY_KEYS[1:])

    def test_p999_present_and_bounded(self):
        s = self._summary(_heavy_tail(n=2000))
        assert s["p50"] <= s["p99"] <= s["p999"] <= s["max"]
        assert s["count"] == 2000

    def test_percentile_endpoints_exact(self):
        s = self._summary([50.0, 1.0, 100.0])
        assert (s["min"], s["max"]) == (1.0, 100.0)

    def test_histogram_merge_state_roundtrip(self):
        a, b = Registry(), Registry()
        for v in (1.0, 2.0, 3.0):
            a.observe("lat", v, nic=0)
        a.observe("lat", 7.0, nic=1)
        b.merge_state(a.export_state())
        assert b.snapshot() == a.snapshot()
        assert b.export_state() == a.export_state()
        assert b.snapshot()["histograms"]["lat{nic=0}"]["count"] == 3
