"""Baseline systems the paper compares against.

* :mod:`.raw_read` — one-sided RC reads (Fig. 2a motivation)
* :mod:`.ud_rpc` — generic UD RPC engine (Fig. 2b motivation)
* :mod:`.erpc` — eRPC cost profile over the UD engine (Figs. 6-8, 16-18)
* :mod:`.fasst` — FaSST cost profile over the UD engine (Figs. 14-15)
* :mod:`.farm` — RC RPC with FaRM-style spinlock QP sharing / dedicated
  per-thread QPs (Fig. 9)
"""

from .erpc import ERPC_SESSION_CREDITS, ErpcEndpoint, ErpcServer
from .farm import RcHandle, RcRpcClient, RcRpcServer
from .fasst import FASST_TIMEOUT_NS, FasstEndpoint, FasstServer
from .raw_read import ReadClient
from .ud_rpc import UdChunk, UdEndpoint, UdRequest, UdResponse, UdRpcServer

__all__ = [
    "ERPC_SESSION_CREDITS",
    "ErpcEndpoint",
    "ErpcServer",
    "FASST_TIMEOUT_NS",
    "FasstEndpoint",
    "FasstServer",
    "RcHandle",
    "RcRpcClient",
    "RcRpcServer",
    "ReadClient",
    "UdChunk",
    "UdEndpoint",
    "UdRequest",
    "UdResponse",
    "UdRpcServer",
]
