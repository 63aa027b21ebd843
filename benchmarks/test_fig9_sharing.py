"""Paper Fig. 9: QP-sharing approaches under 8 outstanding requests.

Compares (1) FLock's combining-based sharing with receiver-side QP
scheduling, (2) no sharing (a dedicated QP per thread), and (3) FaRM-like
spinlock sharing with 2 or 4 threads per QP.  Claims: parity with
no-sharing at low thread counts, >=62%/133% wins at 32/48 threads, and
spinlock sharing performing like no-sharing (serialized posting gains
nothing from sharing).
"""


def test_fig9(run_figure):
    run_figure("fig9")
