"""Paper Figs. 16-18: HydraList over FLock vs eRPC.

A single-node index, 22 clients issuing 90% get / 10% scan(64) with
1/4/8 outstanding requests per thread.  Claims: parity (or slight eRPC
edge) at low thread counts, FLock ~1.4x at 32 threads with lower median
and 99p latency for both gets and scans.
"""


def test_fig16_17_18(run_figure):
    run_figure("fig16")
