"""FaSST-like RPC baseline (Kalia et al., OSDI'16).

FaSST runs datagram RPCs with *no* software reliability: it assumes a
lossless fabric and treats a missing response as a rare catastrophic
event (the paper observes exactly this at 16-32 threads — "some client
coroutines do not make progress, which is considered as a packet loss in
their RPC implementation", §8.5.2).  Compared to eRPC it skips the
congestion-control cycles but keeps the recv-recycling and polling tax,
and its receive pools are sized for the common case — overload drops
packets.

Requests carry a timeout so the simulation surfaces losses the way FaSST
does: ``lost_requests`` counts coroutines that stopped making progress.
"""

from __future__ import annotations

from typing import Optional

from ..net.fabric import Fabric, Node
from ..sim import Simulator
from .ud_rpc import UdEndpoint, UdRpcServer

__all__ = ["FasstServer", "FasstEndpoint", "FASST_TIMEOUT_NS"]

#: Detecting a lost RPC (coroutine stuck) — generous virtual timeout.
FASST_TIMEOUT_NS = 400_000.0
#: FaSST's receive pool per worker; overload beyond this drops packets.
FASST_RECV_POOL = 256


class FasstServer(UdRpcServer):
    """UD RPC server with FaSST's cost profile and finite recv pools."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 n_workers: Optional[int] = None,
                 recv_pool_per_worker: int = FASST_RECV_POOL):
        super().__init__(sim, node, fabric, n_workers=n_workers,
                         recv_pool_per_worker=recv_pool_per_worker,
                         extra_sw_ns=0.0)


class FasstEndpoint(UdEndpoint):
    """Client endpoint: no CC window, loss detected by timeout."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 timeout_ns: float = FASST_TIMEOUT_NS):
        super().__init__(sim, node, fabric, session_credits=None,
                         extra_sw_ns=0.0, timeout_ns=timeout_ns)
