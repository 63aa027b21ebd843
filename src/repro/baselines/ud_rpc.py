"""UD-based RPC systems (the HERD/FaSST/eRPC design point, §2.2).

One datagram QP per endpoint thread talks to many peers, so the RNIC
caches almost no connection state — but every message costs server CPU:
polling the completion queue, recycling receive buffers
(``ibv_post_recv``), and software transport work (reliability +
congestion control, which the hardware no longer provides).  The paper's
Fig. 2(b) shows this CPU tax saturating the server while the NIC is far
from its limits; eRPC and FaSST below are cost-profile variants of this
common engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..net.fabric import Fabric, Node
from ..net.packet import segment
from ..sim import Event, Simulator, Store
from ..verbs import QueuePair, Transport, Verb, WorkRequest

__all__ = ["UdRpcServer", "UdEndpoint", "UdRequest", "UdResponse", "UdChunk"]

_req_ids = itertools.count(1)


@dataclass
class UdRequest:
    req_id: int
    rpc_id: int
    size: int
    payload: Any
    reply_qp: QueuePair
    created_ns: float


@dataclass
class UdResponse:
    req_id: int
    size: int
    payload: Any


@dataclass
class UdChunk:
    """One MTU-sized fragment of a payload larger than UD's 4 KB limit.

    Table 1: UD transfers above the MTU must be split by the application
    and reassembled at the receiver, handling reordering.
    """

    msg_id: int
    chunk_idx: int
    n_chunks: int
    payload: Any
    #: Payload bytes this fragment carries (feeds the receiver's
    #: ``Reassembler.pending_bytes`` leak accounting).
    nbytes: int = 0


class UdRpcServer:
    """A server running one UD QP + worker per core (run-to-completion)."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 n_workers: Optional[int] = None,
                 recv_pool_per_worker: int = 512,
                 extra_sw_ns: float = 0.0):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cpu = node.cpu_cfg
        self.n_workers = n_workers if n_workers is not None else len(node.cpu)
        #: Extra per-message software cost (congestion control profile).
        self.extra_sw_ns = extra_sw_ns
        self.handlers: Dict[int, Callable] = {}
        self.qps: List[QueuePair] = []
        self.recv_pool = recv_pool_per_worker
        self.requests_handled = 0
        self._started = False
        for _ in range(self.n_workers):
            qp = QueuePair(sim, node, fabric, Transport.UD)
            qp.post_recv(4096, n=recv_pool_per_worker)
            self.qps.append(qp)

    def register_handler(self, rpc_id: int, handler: Callable) -> None:
        """``handler(request) -> (size, payload, app CPU ns)``."""
        self.handlers[rpc_id] = handler

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for idx in range(self.n_workers):
            self.sim.spawn(self._worker(idx), name="ud-worker%d" % idx)

    @property
    def recv_drops(self) -> int:
        return sum(qp.recv_drops for qp in self.qps)

    def qp_for_client(self, client_index: int) -> QueuePair:
        """Clients are spread over server endpoints round-robin."""
        return self.qps[client_index % len(self.qps)]

    def _worker(self, idx: int) -> Generator[Event, None, None]:
        core = self.node.cpu[idx % len(self.node.cpu)]
        qp = self.qps[idx]
        cpu = self.cpu
        while True:
            wc = yield qp.recv_cq.wait_pop()
            request: UdRequest = wc.payload
            # Critical path: poll the CQ and run the receive-side software
            # transport before the handler can see the request.
            yield core.charge(
                cpu.cq_poll_ns + cpu.ud_sw_transport_ns + self.extra_sw_ns,
                "net-ud",
            )
            handler = self.handlers[request.rpc_id]
            size, payload, app_ns = handler(request)
            if app_ns > 0:
                yield core.charge(app_ns, "app")
            # Response doorbell, then the reply is in flight.
            yield core.charge(cpu.mmio_ns, "net-ud")
            qp.post_send(
                WorkRequest(verb=Verb.SEND, length=size, signaled=False,
                            payload=UdResponse(request.req_id, size, payload)),
                remote=request.reply_qp, wait=False,
            )
            self.requests_handled += 1
            # Post-processing off the latency path but on the CPU budget:
            # recycle the consumed receive buffer (ibv_post_recv) and do
            # the send-side transport bookkeeping (§2.2's CPU tax).
            qp.post_recv(4096)
            yield core.charge(
                cpu.ud_recv_recycle_ns + cpu.ud_sw_transport_ns
                + self.extra_sw_ns,
                "net-ud",
            )


class UdEndpoint:
    """A client-side RPC endpoint: one UD QP owned by one thread.

    Multiple coroutines of the thread may keep requests outstanding; a
    per-endpoint dispatcher routes responses back by request id.  An
    optional session credit window (eRPC-style flow control) bounds the
    outstanding requests per endpoint.
    """

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 session_credits: Optional[int] = None,
                 extra_sw_ns: float = 0.0,
                 timeout_ns: Optional[float] = None):
        self.sim = sim
        self.node = node
        self.cpu = node.cpu_cfg
        self.extra_sw_ns = extra_sw_ns
        self.timeout_ns = timeout_ns
        self.qp = QueuePair(sim, node, fabric, Transport.UD)
        self.qp.post_recv(4096, n=4096)
        self.pending: Dict[int, Event] = {}
        self.lost_requests = 0
        self.completed = 0
        self._credits = Store(sim)
        if session_credits:
            for _ in range(session_credits):
                self._credits.try_put(None)
        self._session_credits = session_credits
        sim.spawn(self._dispatcher(), name="ud-dispatch")

    def call(self, server: UdRpcServer, server_qp: QueuePair, rpc_id: int,
             size: int, payload: Any = None
             ) -> Generator[Event, None, Optional[UdResponse]]:
        """Issue one RPC; returns the response, or None on packet loss
        (UD leaves loss recovery to the application, Table 1)."""
        server.start()
        if self._session_credits:
            yield self._credits.get()
        req_id = next(_req_ids)
        request = UdRequest(req_id=req_id, rpc_id=rpc_id, size=size,
                            payload=payload, reply_qp=self.qp,
                            created_ns=self.sim.now)
        ev = Event(self.sim)
        self.pending[req_id] = ev
        # Marshalling + doorbell are on the critical path; the software
        # transport bookkeeping overlaps the request's flight time.
        yield self.sim.sleep(self.cpu.marshal_ns + self.cpu.mmio_ns)
        self.qp.post_send(
            WorkRequest(verb=Verb.SEND, length=size, signaled=False,
                        payload=request),
            remote=server_qp, wait=False,
        )
        yield self.sim.sleep(self.cpu.ud_sw_transport_ns + self.extra_sw_ns)
        if self.timeout_ns is not None:
            timeout = self.sim.timeout(self.timeout_ns)
            result = yield self.sim.any_of([ev, timeout])
            if ev in result:
                response = result[ev]
            else:
                # Lost in the fabric or dropped at an overloaded server.
                self.pending.pop(req_id, None)
                self.lost_requests += 1
                response = None
        else:
            response = yield ev
        if self._session_credits:
            self._credits.try_put(None)
        if response is not None:
            self.completed += 1
        return response

    def send_large(self, target_qp: QueuePair, nbytes: int,
                   payload: Any = None) -> Generator[Event, None, int]:
        """Ship a payload larger than the UD MTU: split into 4 KB chunks,
        one UD send each (the application-side burden of Table 1).
        Returns the number of chunks sent."""
        msg_id = next(_req_ids)
        chunks = segment(nbytes, 4096)
        for idx, chunk_len in enumerate(chunks):
            yield self.sim.sleep(self.cpu.marshal_ns + self.cpu.mmio_ns)
            self.qp.post_send(
                WorkRequest(verb=Verb.SEND, length=chunk_len, signaled=False,
                            payload=UdChunk(msg_id, idx, len(chunks),
                                            payload, nbytes=chunk_len)),
                remote=target_qp, wait=False,
            )
        return len(chunks)

    def _dispatcher(self) -> Generator[Event, None, None]:
        while True:
            wc = yield self.qp.recv_cq.wait_pop()
            response: UdResponse = wc.payload
            yield self.sim.sleep(self.cpu.cq_poll_ns)
            ev = self.pending.pop(response.req_id, None)
            if ev is not None and not ev.triggered:
                ev.succeed(response)
            # Recycling the receive ring happens after delivery.
            self.qp.post_recv(4096)
            yield self.sim.sleep(self.cpu.ud_recv_recycle_ns)
