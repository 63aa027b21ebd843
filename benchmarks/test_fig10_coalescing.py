"""Paper Fig. 10: the impact of coalescing.

32 threads per client; FLock runs with coalescing enabled vs disabled
for 1/4/8 outstanding requests per thread.  Claims: 1.4x at one
outstanding request, ~1.7x at 4/8; the coalescing degree grows with
outstanding requests (paper: 1.56 -> ~1.7 -> ~2 requests per message).
"""


def test_fig10(run_figure):
    run_figure("fig10")
