"""eRPC-like baseline (Kalia et al., NSDI'19) — the paper's main RPC rival.

eRPC runs general-purpose RPCs over UD with *software* reliability and
congestion control (Timely-style RTT tracking, sessions with credit
windows).  We model it as the UD engine with eRPC's cost profile:

* a per-session credit window (default 8 outstanding requests),
* extra per-message software cycles for the congestion-control and
  reliability bookkeeping on both ends.

Its scalability comes for free (no per-connection NIC state); its
weakness — the one Figs. 6-8 expose — is the per-message server CPU tax.
"""

from __future__ import annotations

from typing import Optional

from ..net.fabric import Fabric, Node
from ..sim import Simulator
from .ud_rpc import UdEndpoint, UdRpcServer

__all__ = ["ErpcServer", "ErpcEndpoint", "ERPC_EXTRA_SW_NS", "ERPC_SESSION_CREDITS"]

#: Extra per-message cycles for Timely congestion control + reliability
#: timers (beyond the base UD software transport).
ERPC_EXTRA_SW_NS = 120.0
#: eRPC's default session request window.
ERPC_SESSION_CREDITS = 8


class ErpcServer(UdRpcServer):
    """UD RPC server with the eRPC software cost profile."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 n_workers: Optional[int] = None):
        super().__init__(sim, node, fabric, n_workers=n_workers,
                         recv_pool_per_worker=2048,
                         extra_sw_ns=ERPC_EXTRA_SW_NS)


class ErpcEndpoint(UdEndpoint):
    """Client endpoint with eRPC session credits + CC costs."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric):
        super().__init__(sim, node, fabric,
                         session_credits=ERPC_SESSION_CREDITS,
                         extra_sw_ns=ERPC_EXTRA_SW_NS)
