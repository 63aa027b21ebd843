"""End-to-end checks of the paper's qualitative claims.

These are small-scale versions of the headline behaviours the benchmarks
reproduce at full scale — kept cheap enough for the unit-test suite, but
asserting the *direction* of every major effect.
"""

import pytest

from repro.config import ClusterConfig, NicConfig
from repro.harness import (
    MicrobenchConfig,
    run_erpc,
    run_flock,
    run_raw_reads,
    run_rc,
)

pytestmark = pytest.mark.usefixtures("half_windows")


class TestMotivationClaims:
    def test_rc_reads_collapse_beyond_nic_cache(self):
        """Fig. 2a: throughput drops sharply once QPs exceed the cache."""
        nic = NicConfig(qp_cache_entries=48)
        cluster = ClusterConfig(nic=nic)
        few = run_raw_reads(32, n_clients=4, cluster=cluster)
        many = run_raw_reads(512, n_clients=4, cluster=cluster)
        assert few.mops > many.mops * 1.5
        assert many.extras["qp_cache_miss"] > few.extras["qp_cache_miss"]

    def test_rc_reads_scale_while_cached(self):
        """Fig. 2a left half: more QPs help while they fit the cache."""
        tiny = run_raw_reads(4, n_clients=4, outstanding_per_qp=1)
        mid = run_raw_reads(64, n_clients=4, outstanding_per_qp=1)
        assert mid.mops > tiny.mops


HIGH_LOAD = MicrobenchConfig(n_clients=6, threads_per_client=16,
                             outstanding=2, warmup_ns=400_000,
                             measure_ns=400_000)


class TestFlockVsErpc:
    def test_flock_beats_erpc_at_high_thread_count(self):
        """Figs. 6-8: at high fan-in FLock wins on throughput and tail."""
        flock = run_flock(HIGH_LOAD)
        erpc = run_erpc(HIGH_LOAD)
        assert flock.mops > erpc.mops
        assert flock.p99_us < erpc.p99_us

    def test_erpc_is_server_cpu_bound(self):
        erpc = run_erpc(HIGH_LOAD)
        assert erpc.extras["server_cpu"] > 0.9
        assert erpc.extras["server_net_frac"] > 0.8


class TestSharingClaims:
    def test_coalescing_beats_no_coalescing_under_sharing(self):
        """Fig. 10: coalescing is a throughput win at high contention."""
        cfg = MicrobenchConfig(n_clients=6, threads_per_client=16,
                               outstanding=4, warmup_ns=400_000,
                               measure_ns=400_000)
        with_c = run_flock(cfg, qps_per_process=4)
        without_c = run_flock(cfg, qps_per_process=4, coalescing=False)
        assert with_c.extras["mean_coalescing_degree"] > 1.2
        assert with_c.mops > without_c.mops

    def test_flock_beats_spinlock_sharing(self):
        """Fig. 9: FLock synchronization beats FaRM-style spinlock."""
        cfg = MicrobenchConfig(n_clients=6, threads_per_client=16,
                               outstanding=8, warmup_ns=400_000,
                               measure_ns=400_000)
        flock = run_flock(cfg, qps_per_process=4)
        farm = run_rc(cfg, threads_per_qp=4)
        assert flock.mops > farm.mops
