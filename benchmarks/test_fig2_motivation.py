"""Paper Fig. 2: the motivation experiments.

(a) 16-byte RDMA reads (RC) from 22 clients as the QP count grows:
    throughput peaks in the 176-704 QP window and collapses beyond it
    when the RNIC connection cache thrashes.
(b) UD-based RPC as the sender count grows: throughput saturates on
    server CPU (most cycles inside the network stack) far below the RC
    read peak.
"""


def test_fig2a_rc_read_scaling(run_figure):
    run_figure("fig2a")


def test_fig2b_ud_rpc_scaling(run_figure):
    run_figure("fig2b")
