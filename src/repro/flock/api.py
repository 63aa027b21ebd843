"""The public FLock programming interface (paper Table 2).

:class:`FlockNode` is the façade a node's application code uses.  A node
can act as a sender (client), a receiver (server), or both.  The method
names follow Table 2 exactly:

=================  =========================================================
``fl_connect``      connect to a remote node → :class:`ConnectionHandle`
``fl_attach_mreg``  attach a memory region for memory operations
``fl_send_rpc``     send an RPC request with an RPC id and data
``fl_recv_res``     receive RPC responses
``fl_reg_handler``  register an RPC handler function with an RPC id
``fl_recv_rpc``     fetch RPC requests (application-driven dispatch)
``fl_send_res``     send an RPC response with data
``fl_read``         read from remote memory
``fl_write``        write to remote memory
``fl_fetch_and_add``  atomic fetch-and-add on remote memory
``fl_cmp_and_swap``   atomic compare-and-swap on remote memory
=================  =========================================================

All blocking calls are DES-process generators: application code drives
them with ``yield from`` inside a simulated thread.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from ..config import FlockConfig
from ..net.fabric import Fabric, Node
from ..sim import Event, Simulator
from .handle import ConnectionHandle
from .memops import MemoryOps
from .message import RpcRequest, RpcResponse
from .rpc import MANUAL_HANDLER, FlockClient, FlockServer, RpcHandler

__all__ = ["FlockNode"]


class FlockNode:
    """Per-node FLock endpoint exposing the Table 2 API."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 cfg: Optional[FlockConfig] = None, seed: int = 0):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cfg = cfg or FlockConfig()
        self.client = FlockClient(sim, node, fabric, self.cfg, seed=seed)
        self.server = FlockServer(sim, node, fabric, self.cfg)
        self.mem = MemoryOps(self.client)

    # -- setup ----------------------------------------------------------------

    def fl_connect(self, remote: "FlockNode",
                   n_qps: Optional[int] = None) -> ConnectionHandle:
        """Establish one-to-one connectivity to ``remote``; FLock manages
        a set of RC QPs behind the returned handle (§3)."""
        return self.client.connect(remote.server, n_qps=n_qps)

    def fl_attach_mreg(self, handle: ConnectionHandle, length: int):
        """Attach a remote memory region of ``length`` bytes for memory
        operations on this handle; returns the region (addr, rkey)."""
        return self.client.attach_mreg(handle, length)

    # -- RPC sender -------------------------------------------------------------

    def fl_send_rpc(self, handle: ConnectionHandle, thread_id: int,
                    rpc_id: int, size: int, payload: Any = None
                    ) -> Generator[Event, None, Event]:
        """Send an RPC request; returns the event ``fl_recv_res`` waits on.

        Hands back the client's generator itself rather than wrapping it
        in another ``yield from`` frame: one frame less per RPC."""
        return self.client.send_rpc(handle, thread_id, rpc_id, size, payload)

    def fl_recv_res(self, response_ev: Event) -> Generator[Event, None, RpcResponse]:
        """Wait for the response to a previously sent RPC."""
        response = yield response_ev
        return response

    def fl_call(self, handle: ConnectionHandle, thread_id: int, rpc_id: int,
                size: int, payload: Any = None
                ) -> Generator[Event, None, RpcResponse]:
        """Convenience: ``fl_send_rpc`` + ``fl_recv_res`` (the client's
        generator, as for ``fl_send_rpc``)."""
        return self.client.call(handle, thread_id, rpc_id, size, payload)

    # -- RPC receiver ---------------------------------------------------------------

    def fl_reg_handler(self, rpc_id: int, handler: RpcHandler) -> None:
        """Register ``handler`` for ``rpc_id`` (run by server workers).

        ``handler(request) -> (response size, payload, server CPU ns)``.
        """
        self.server.register_handler(rpc_id, handler)

    def fl_reg_manual(self, rpc_id: int) -> None:
        """Mark ``rpc_id`` for application-driven dispatch via
        ``fl_recv_rpc`` / ``fl_send_res``."""
        self.server.handlers[rpc_id] = MANUAL_HANDLER

    def fl_recv_rpc(self) -> Generator[Event, None, Tuple[Any, RpcRequest]]:
        """Fetch the next manually dispatched RPC request.  Returns an
        opaque token (pass to ``fl_send_res``) and the request."""
        shandle, schannel, request = yield self.server.manual_inbox.get()
        return (shandle, schannel), request

    def fl_send_res(self, token, request: RpcRequest, size: int,
                    payload: Any = None) -> Generator[Event, None, None]:
        """Send the response for a manually dispatched request."""
        shandle, schannel = token
        response = RpcResponse(thread_id=request.thread_id,
                               seq_id=request.seq_id, rpc_id=request.rpc_id,
                               size=size, payload=payload)
        core = self.node.cpu[0]
        self.server.requests_handled += 1
        yield from self.server._flush_responses(core, shandle, schannel,
                                                [response])

    # -- memory and atomics (§6) ----------------------------------------------------

    def fl_read(self, handle: ConnectionHandle, thread_id: int,
                remote_addr: int, rkey: int, size: int):
        """Read ``size`` bytes from remote memory (one-sided, no remote
        CPU); returns the verbs completion."""
        return (yield from self.mem.read(handle, thread_id, remote_addr,
                                         rkey, size))

    def fl_write(self, handle: ConnectionHandle, thread_id: int,
                 remote_addr: int, rkey: int, size: int, payload: Any = None):
        """Write ``size`` bytes to remote memory (one-sided); returns the
        verbs completion."""
        return (yield from self.mem.write(handle, thread_id, remote_addr,
                                          rkey, size, payload))

    def fl_fetch_and_add(self, handle: ConnectionHandle, thread_id: int,
                         remote_addr: int, rkey: int, delta: int):
        """Atomic 8-byte fetch-and-add on remote memory; the completion
        payload carries the previous value."""
        return (yield from self.mem.fetch_and_add(handle, thread_id,
                                                  remote_addr, rkey, delta))

    def fl_cmp_and_swap(self, handle: ConnectionHandle, thread_id: int,
                        remote_addr: int, rkey: int, compare: int, swap: int):
        """Atomic 8-byte compare-and-swap on remote memory; the swap took
        effect iff the completion payload equals ``compare``."""
        return (yield from self.mem.cmp_and_swap(handle, thread_id,
                                                 remote_addr, rkey, compare,
                                                 swap))
