"""Paper Fig. 14: TATP transactions — FLockTX vs FaSST.

3 servers (3-way replication), 20 clients, 19 submit coroutines per
thread, read-intensive TATP mix.  Claims: FaSST is competitive at low
thread counts but saturates; FLockTX reaches ~1.9x/2.4x FaSST at 8/16
threads with much lower tail latency; FaSST suffers packet loss at high
thread counts (the paper omits its 32-thread numbers for that reason).
"""


def test_fig14(run_figure):
    run_figure("fig14")
