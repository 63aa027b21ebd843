"""Workload generators: mixes, skew, payload-size distributions."""

import random
from collections import Counter

import pytest

from repro.workloads import (
    BimodalSize,
    SmallbankWorkload,
    TatpWorkload,
)


class TestTatp:
    def make(self, seed=1):
        return TatpWorkload(3, random.Random(seed),
                            subscribers_per_server=1000)

    def classify(self, txn):
        if not txn.writes:
            return "single-read" if len(txn.reads) == 1 else "multi-read"
        return "read-write" if txn.reads else "write"

    def test_mix_fractions(self):
        """70% single-read / 10% multi-read / 20% updating (paper)."""
        wl = self.make()
        counts = Counter(self.classify(wl.next_txn()) for _ in range(20000))
        total = sum(counts.values())
        assert counts["single-read"] / total == pytest.approx(0.70, abs=0.02)
        assert counts["multi-read"] / total == pytest.approx(0.10, abs=0.02)
        updating = (counts["read-write"] + counts["write"]) / total
        assert updating == pytest.approx(0.20, abs=0.02)

    def test_keys_in_range(self):
        wl = self.make()
        for _ in range(2000):
            txn = wl.next_txn()
            for key in list(txn.reads) + txn.write_keys:
                assert 0 <= key < 3000

    def test_reads_and_writes_disjoint(self):
        wl = self.make()
        for _ in range(2000):
            txn = wl.next_txn()
            assert not (set(txn.reads) & set(txn.write_keys))

    def test_multi_read_has_several_keys(self):
        wl = self.make()
        multi = [t for t in (wl.next_txn() for _ in range(5000))
                 if not t.writes and len(t.reads) > 1]
        assert multi
        assert all(1 < len(t.reads) <= 3 for t in multi)

    def test_deterministic_given_seed(self):
        a = TatpWorkload(3, random.Random(9), subscribers_per_server=100)
        b = TatpWorkload(3, random.Random(9), subscribers_per_server=100)
        for _ in range(50):
            ta, tb = a.next_txn(), b.next_txn()
            assert ta.reads == tb.reads and ta.writes == tb.writes

    def test_iterable(self):
        wl = self.make()
        it = iter(wl)
        assert next(it).reads is not None

    def test_bad_config(self):
        with pytest.raises(ValueError):
            TatpWorkload(0, random.Random(1))


class TestSmallbank:
    def make(self, seed=2, accounts=5000):
        return SmallbankWorkload(accounts, random.Random(seed))

    def test_write_fraction_is_85_percent(self):
        wl = self.make()
        writers = sum(1 for _ in range(20000) if wl.next_txn().writes)
        assert writers / 20000 == pytest.approx(0.85, abs=0.02)

    def test_hot_account_skew(self):
        """4% of accounts receive ~90% of accesses (paper §8.5.2)."""
        wl = self.make(accounts=10000)
        hot_rows = 2 * wl.keygen.n_hot  # checking+savings of hot accounts
        touched = []
        for _ in range(20000):
            txn = wl.next_txn()
            touched.extend(list(txn.reads) + txn.write_keys)
        hot_share = sum(1 for k in touched if k < hot_rows) / len(touched)
        assert hot_share == pytest.approx(0.90, abs=0.03)

    def test_keys_are_valid_rows(self):
        wl = self.make(accounts=100)
        for _ in range(2000):
            txn = wl.next_txn()
            for key in list(txn.reads) + txn.write_keys:
                assert 0 <= key < 200

    def test_send_payment_touches_two_accounts(self):
        wl = self.make()
        two_writers = [t for t in (wl.next_txn() for _ in range(5000))
                       if len(t.writes) == 2]
        assert two_writers
        for txn in two_writers:
            k1, k2 = txn.write_keys
            assert k1 // 2 != k2 // 2  # distinct accounts

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SmallbankWorkload(2, random.Random(1))


class TestSizeGenerators:
    def test_bimodal_per_thread_assignment(self):
        gen = BimodalSize(n_threads=20, large_size=1024)
        sizes = [gen.next(tid) for tid in range(20)]
        assert sizes.count(1024) == 2  # 10% of 20 threads
        assert sizes.count(64) == 18
        # Deterministic per thread.
        assert gen.next(0) == gen.next(0)

    def test_bimodal_minimum_one_large(self):
        gen = BimodalSize(n_threads=4, large_size=512)
        sizes = [gen.next(tid) for tid in range(4)]
        assert sizes.count(512) == 1

    def test_bimodal_bad_fraction(self):
        with pytest.raises(ValueError):
            BimodalSize(10, 512, large_fraction=2.0)
