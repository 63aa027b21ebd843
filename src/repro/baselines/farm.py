"""RC write-based RPC with FaRM-style QP sharing (paper §8.3.1, Fig. 9).

FaRM shares QPs between threads with a **spinlock**: whoever holds the
lock marshals its own request and posts its own RDMA write — no
coalescing, full serialization.  The paper's Fig. 9 compares three
configurations, all implemented here:

* ``threads_per_qp=1`` — no sharing, a dedicated QP per thread;
* ``threads_per_qp=2/4`` — FaRM-like spinlock sharing;

against FLock's combining-based sharing.  The RPC mechanics mirror
FLock's two-RDMA-write scheme (request ring at the server, response ring
at the client) for a fair comparison, minus coalescing, credits, and
scheduling.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..net.fabric import Fabric, Node
from ..sim import Event, Resource, Simulator, Store
from ..verbs import QueuePair, Transport, Verb, WorkRequest
from ..flock.message import CoalescedMessage, RpcRequest, RpcResponse
from ..flock.ringbuf import RingBuffer

__all__ = ["RcRpcServer", "RcRpcClient", "RcHandle"]

_thread_seq = itertools.count(1)

#: Slots in each channel's request and response ring.
RING_SLOTS = 256


class _RcChannel:
    """One client QP with its rings and (optional) spinlock.

    The spinlock is a one-unit :class:`Resource`.  The simulation does not
    model the core a spinning thread burns, so spinning shows up as
    serialization, which is the effect that matters.
    """

    __slots__ = ("index", "client_qp", "server_qp", "req_region", "resp_region",
                 "resp_ring", "lock", "pending", "posted")

    def __init__(self, index: int, client_qp: QueuePair, server_qp: QueuePair,
                 req_region, resp_region, resp_ring: RingBuffer,
                 lock: Optional[Resource]):
        self.index = index
        self.client_qp = client_qp
        self.server_qp = server_qp
        self.req_region = req_region
        self.resp_region = resp_region
        self.resp_ring = resp_ring
        self.lock = lock
        self.pending: Dict[Tuple[int, int], Event] = {}
        self.posted = 0


class RcHandle:
    """A client's set of RC channels to one server."""

    def __init__(self, channels: List[_RcChannel], threads_per_qp: int):
        self.channels = channels
        self.threads_per_qp = threads_per_qp

    def channel_for(self, thread_id: int) -> _RcChannel:
        return self.channels[(thread_id // self.threads_per_qp)
                             % len(self.channels)]


class RcRpcServer:
    """Server half: per-core workers drain per-QP request rings."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 n_workers: Optional[int] = None):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cpu = node.cpu_cfg
        self.n_workers = n_workers if n_workers is not None else len(node.cpu)
        self.handlers: Dict[int, Callable] = {}
        self._inboxes: List[Store] = [Store(sim) for _ in range(self.n_workers)]
        self._rings_per_worker = [0] * self.n_workers
        self._rr = 0
        self.requests_handled = 0
        self._started = False

    def register_handler(self, rpc_id: int, handler: Callable) -> None:
        self.handlers[rpc_id] = handler

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for idx in range(self.n_workers):
            self.sim.spawn(self._worker(idx), name="rc-worker%d" % idx)

    def accept_channel(self) -> Tuple[QueuePair, Any, RingBuffer, Store, int]:
        """Create the server side of one channel; returns routing info."""
        server_qp = QueuePair(self.sim, self.node, self.fabric, Transport.RC)
        region = self.node.memory.register(RING_SLOTS * 4096)
        ring = RingBuffer(self.sim, region, RING_SLOTS)
        worker = self._rr % self.n_workers
        self._rr += 1
        self._rings_per_worker[worker] += 1
        inbox = self._inboxes[worker]
        return server_qp, region, ring, inbox, worker

    def _worker(self, idx: int) -> Generator[Event, None, None]:
        core = self.node.cpu[idx % len(self.node.cpu)]
        inbox = self._inboxes[idx]
        cpu = self.cpu
        while True:
            channel, msg = yield inbox.get()
            channel_ring, server_qp, resp_region = channel
            channel_ring.consume(msg.total_bytes)
            request: RpcRequest = msg.entries[0]
            yield core.charge(
                cpu.ring_poll_ns
                + cpu.ring_scan_per_qp_ns * self._rings_per_worker[idx]
                + cpu.decode_ns,
                "net-poll",
            )
            size, payload, app_ns = self.handlers[request.rpc_id](request)
            if app_ns > 0:
                yield core.charge(app_ns, "app")
            response = RpcResponse(thread_id=request.thread_id,
                                   seq_id=request.seq_id,
                                   rpc_id=request.rpc_id, size=size,
                                   payload=payload)
            rmsg = CoalescedMessage(entries=[response])
            yield core.charge(cpu.header_build_ns + cpu.mmio_ns, "net-send")
            server_qp.post_send(WorkRequest(
                verb=Verb.WRITE, length=rmsg.total_bytes,
                remote_addr=resp_region.addr, rkey=resp_region.rkey,
                payload=rmsg, signaled=False,
            ), wait=False)
            self.requests_handled += 1


class RcRpcClient:
    """Client half: spinlock-shared (or dedicated) QPs, one write per RPC."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cpu = node.cpu_cfg

    def connect(self, server: RcRpcServer, n_qps: int,
                threads_per_qp: int = 1) -> RcHandle:
        server.start()
        channels: List[_RcChannel] = []
        for index in range(n_qps):
            client_qp = QueuePair(self.sim, self.node, self.fabric, Transport.RC)
            server_qp, req_region, req_ring, inbox, _worker = server.accept_channel()
            client_qp.connect(server_qp)
            resp_region = self.node.memory.register(RING_SLOTS * 4096)
            resp_ring = RingBuffer(self.sim, resp_region, RING_SLOTS)
            lock = Resource(self.sim) if threads_per_qp > 1 else None
            channel = _RcChannel(index, client_qp, server_qp, req_region,
                                 resp_region, resp_ring, lock)
            channels.append(channel)

            def on_request(msg, _ring=req_ring, _sqp=server_qp,
                           _resp=resp_region, _inbox=inbox):
                _inbox.try_put(((_ring, _sqp, _resp), msg))

            req_ring.on_message = on_request

            def on_response(msg, _channel=channel):
                _channel.resp_ring.consume(msg.total_bytes)
                response: RpcResponse = msg.entries[0]
                ev = _channel.pending.pop(
                    (response.thread_id, response.seq_id), None)
                if ev is not None and not ev.triggered:
                    ev.succeed(response)

            resp_ring.on_message = on_response
        return RcHandle(channels, threads_per_qp)

    def call(self, handle: RcHandle, thread_id: int, rpc_id: int, size: int,
             payload: Any = None) -> Generator[Event, None, RpcResponse]:
        """One RPC: lock (if shared), marshal, one RDMA write, await reply."""
        channel = handle.channel_for(thread_id)
        seq = next(_thread_seq)
        request = RpcRequest(thread_id=thread_id, seq_id=seq, rpc_id=rpc_id,
                             size=size, payload=payload,
                             created_ns=self.sim.now)
        ev = Event(self.sim)
        channel.pending[(thread_id, seq)] = ev
        if channel.lock is not None:
            yield channel.lock.acquire()
        try:
            yield self.sim.sleep(self.cpu.marshal_ns
                                 + self.cpu.copy_ns_per_byte * size
                                 + self.cpu.header_build_ns
                                 + self.cpu.mmio_ns)
            msg = CoalescedMessage(entries=[request])
            channel.posted += 1
            channel.client_qp.post_send(WorkRequest(
                verb=Verb.WRITE, length=msg.total_bytes,
                remote_addr=channel.req_region.addr,
                rkey=channel.req_region.rkey,
                payload=msg, signaled=False,
            ), wait=False)
        finally:
            if channel.lock is not None:
                channel.lock.release()
        response = yield ev
        return response
