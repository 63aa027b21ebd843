"""Paper Fig. 11: sender-side thread scheduling under mixed payloads.

90% of threads send 64 B requests, 10% send large ones (512/768/1024 B).
Algorithm 1 sorts threads by median request size and packs them into
byte-quota groups, so large-payload threads land on their own QPs.

What reproduces, measured per size class below: the scheduler reliably
*separates* the classes, which removes the large requests from behind
small-thread combining queues (their median latency drops several-fold)
at throughput parity.  What does not reproduce: the paper's up-to-1.5x
*throughput* win — at a simulated 100 Gbps with byte-proportional costs
only, a 1 KB payload is nearly free on the wire, so mixing classes costs
our model little.  The deviation is recorded in EXPERIMENTS.md.

``REPRO_BENCH_SCALE`` does not shorten this figure's windows: the
scheduler acts every 150 µs, and the claims need the measurement to
start several passes after the first.
"""


def test_fig11(run_figure):
    run_figure("fig11")
