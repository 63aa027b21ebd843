"""Paper Fig. 15: Smallbank transactions — FLockTX vs FaSST.

Write-intensive (85% of transactions update keys) with 3-way
replication, so every committed writer crosses the network for logging
and commit.  Claims: similar throughput up to 2 threads; FLockTX up to
+24%/+88% at 4/8 threads; FaSST's tail is worse even at one thread
(paper: 178 vs 126 us).
"""


def test_fig15(run_figure):
    run_figure("fig15")
