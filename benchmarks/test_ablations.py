"""Ablations of FLock's design parameters (DESIGN.md §5).

Not figures from the paper, but sweeps over the design constants the
paper fixes: MAX_AQP (256), the leader's combining bound, and the
credit batch size C (32).  Each documents why the paper's choice sits
where it does.  MAX_AQP trades throughput for latency: fewer active QPs
mean deeper coalescing at the cost of combining-queue latency, and far
above the NIC cache it brings back the Fig. 2a thrashing.  A combining
bound of 1 disables coalescing, and very large bounds stop helping once
batches exceed concurrent arrivals.  Too small a credit batch starves
QPs on renewal latency.
"""


def test_ablations(run_figure):
    run_figure("ablations")
