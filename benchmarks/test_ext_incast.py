"""Extension benchmark: N->1 incast on the switched-fabric model.

The paper evaluates FLock on an uncongested testbed; this extension
asks what its design buys once the fabric itself pushes back.  All
12x6x2 = 144 request streams converge on one server egress port with a
shallow (Collie-regime) 10KB buffer.  FLock rides RC — ECN marks become
CNPs, DCQCN paces the shared QPs, the leader holds the doorbell through
the pacing clearance so coalescing *deepens* — and tail drops are
hardware retransmits.  UD (eRPC-style) has no transport-level recovery:
a tail-dropped request is gone until the 5ms RTO, so the synchronized
initial burst permanently silences most workers and the survivors
cannot fill the port.  Acceptance: FLock retains a strictly larger
fraction of its uncongested throughput than UD.
"""


def test_ext_incast(run_figure):
    run_figure("incast")
