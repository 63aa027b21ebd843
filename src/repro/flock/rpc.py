"""FLock RPC engines: client send path, server dispatch, QP scheduling.

This module wires the pieces of §4-§5 together in virtual time:

* **Client** (:class:`FlockClient`): application threads submit requests
  into per-QP combining queues; a transient *leader* per QP coalesces
  them into one RDMA write (FLock synchronization, §4.2), manages
  credits, and reports coalescing degree.  A lightweight response
  dispatcher routes coalesced responses back to threads by (thread id,
  sequence id) (§4.3), and a thread-scheduler process remaps threads to
  active QPs (Algorithm 1, §5.2).
* **Server** (:class:`FlockServer`): per-core workers drain request
  rings, execute registered handlers, and coalesce responses back; a
  dedicated QP-scheduler thread grants/declines credit renewals and
  periodically redistributes active QPs across senders (§5.1), with
  grants piggybacked on response messages (§7).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..config import FlockConfig
from ..net.fabric import Fabric, Node
from ..sim import Event, Simulator, Store, TrackedStore
from ..verbs import (
    CompletionQueue,
    QueuePair,
    Transport,
    Verb,
    WorkRequest,
)
from .credits import CreditGrant, CreditState, RenewRequest
from .handle import ConnectionHandle, MemOp, QpChannel, ThreadState
from .message import (
    CoalescedMessage,
    RpcRequest,
    RpcResponse,
    coalesced_size,
)
from .qp_scheduler import HoldLedger, UtilizationTable, compute_allocation
from .ringbuf import RingBuffer, SenderView
from .tcq import CombiningQueue, PendingSend
from .thread_scheduler import assign_threads

__all__ = ["FlockClient", "FlockServer", "ActiveSetUpdate", "RpcHandler"]

#: Wire sizes of control messages.
RENEW_BYTES = 24
GRANT_BYTES = 24
ACTIVE_SET_BYTES = 64

#: Handler signature: request -> (response size, response payload,
#: application CPU ns charged on the server core).
RpcHandler = Callable[[RpcRequest], Tuple[int, Any, float]]


@dataclass
class ActiveSetUpdate:
    """Server→client notification of the QP scheduler's new active set."""

    active_indices: List[int]
    credit_batch: int


class _ServerChannel:
    """Server-side state of one QP of one client handle."""

    __slots__ = ("index", "server_qp", "request_ring", "resp_rkey", "resp_addr",
                 "pending_grant", "active", "posted_writes", "responses_sent",
                 "messages_received", "queued_msgs", "response_accum",
                 "processing")

    def __init__(self, index: int, server_qp: QueuePair, request_ring: RingBuffer,
                 resp_rkey: int, resp_addr: int):
        self.index = index
        self.server_qp = server_qp
        self.request_ring = request_ring
        self.resp_rkey = resp_rkey
        self.resp_addr = resp_addr
        self.pending_grant = 0
        self.active = True
        self.posted_writes = 0
        self.responses_sent = 0
        self.messages_received = 0
        #: Messages routed to the worker but not yet processed; while
        #: more are queued, responses accumulate so the server coalesces
        #: them across request messages (§4.3: "RPC responses are also
        #: coalesced into larger messages").
        self.queued_msgs = 0
        self.response_accum: List[RpcResponse] = []
        #: True while a worker is between popping a message of this QP
        #: and deciding whether to flush — a response is imminent.
        self.processing = False


class _ServerHandle:
    """Server-side state of one connected client."""

    def __init__(self, client_id: int, client_name: str):
        self.client_id = client_id
        self.client_name = client_name
        self.channels: List[_ServerChannel] = []
        self.active_set: List[int] = []
        #: Requests received since the last redistribution — the paper's
        #: dormancy test is "does not issue any request within a
        #: scheduling interval", which must hold even before the sender's
        #: first credit renewal arrives.
        self.requests_in_interval = 0


#: Sentinel handler: requests for this RPC id are queued for the
#: application to pull with ``fl_recv_rpc`` and answer with
#: ``fl_send_res`` instead of running a registered function.
MANUAL_HANDLER = object()


class FlockServer:
    """The receiver: request dispatch, handlers, and QP scheduling."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 cfg: FlockConfig):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cfg = cfg
        self.cpu = node.cpu_cfg
        self.handlers: Dict[int, RpcHandler] = {}
        #: Shared RCQ the QP scheduler polls for credit write-with-imms (§7).
        self.sched_cq = CompletionQueue(sim, name="sched-rcq")
        self.clients: Dict[int, _ServerHandle] = {}
        self._next_client_id = 0
        self.util = UtilizationTable()
        # One worker per core, one core reserved for the QP scheduler.
        self.n_workers = max(1, len(node.cpu) - 1)
        #: One inbox and ring count per worker, built by :meth:`start`
        #: once the pool's size is final.
        self._inboxes: List[Store] = []
        self._rings_per_worker: List[int] = []
        self._next_channel_rr = 0
        self.requests_handled = 0
        self.messages_handled = 0
        self.renewals_handled = 0
        #: Renewals answered by a grant riding a response, by a
        #: dedicated grant write, or by a decline (§5.1, §7).
        self.grants_piggybacked = 0
        self.grants_dedicated = 0
        self.grants_declined = 0
        self.redistributions = 0
        #: Requests awaiting application-driven dispatch (fl_recv_rpc).
        self.manual_inbox: Store = Store(sim)
        self._obs = sim.instrumented
        self._trace = sim.spans.enabled
        #: {responses per write-back: count}, kept only when instrumented.
        self.response_degrees: Counter = Counter()
        #: Server-side view of scheduler holds: how long each (client,
        #: qp) pair spent deactivated between redistributions.
        self.hold_ledger = HoldLedger()
        #: Optional :class:`repro.flock.tenancy.TenantManager` — when set,
        #: the QP budget is split hierarchically across tenants first
        #: (the §9 multi-application extension).
        self.tenancy = None
        self._started = False
        sim.register_component(self)

    # -- bootstrap -----------------------------------------------------------

    def set_n_workers(self, n: int) -> None:
        """Resize the worker pool (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot resize a started server")
        self.n_workers = max(1, n)

    def register_handler(self, rpc_id: int, handler: RpcHandler) -> None:
        """``fl_reg_handler``: install the function run for ``rpc_id``."""
        self.handlers[rpc_id] = handler

    def start(self) -> None:
        """Launch worker, scheduler, and redistribution processes."""
        if self._started:
            return
        self._started = True
        # Worker inboxes keep queue accounting when telemetry is live
        # (the Little's-law auditor treats them as the server queue).
        self._inboxes = [
            TrackedStore(self.sim, name="%s.inbox%d" % (self.node.name, idx))
            if self._obs else Store(self.sim)
            for idx in range(self.n_workers)]
        self._rings_per_worker = [0] * self.n_workers
        for idx in range(self.n_workers):
            self.sim.spawn(self._worker_loop(idx), name="flock-worker%d" % idx)
        self.sim.spawn(self._renewal_loop(), name="flock-qpsched")
        self.sim.spawn(self._redistribution_loop(), name="flock-redistribute")

    def accept(self, client_node: Node, n_qps: int, ring_slots: int):
        """Server half of ``fl_connect``: allocate QPs, rings, state.

        Returns (client_id, server handle) — the client builds the
        matching :class:`QpChannel` objects around them.  The initial
        active set already respects MAX_AQP: a new client gets the
        average allocation per connected sender (§5.1), so the server's
        NIC cache is never flooded by a bootstrap burst across every QP
        of every client.
        """
        n_existing = len(self.clients)
        client_id = self._next_client_id
        self._next_client_id += 1
        shandle = _ServerHandle(client_id, client_node.name)
        initial = min(n_qps, max(1, self.cfg.max_aqp // (n_existing + 1)))
        shandle.active_set = list(range(initial))
        self.clients[client_id] = shandle
        self.util.ensure_client(client_id)
        return client_id, shandle

    def create_server_qp(self) -> QueuePair:
        return QueuePair(self.sim, self.node, self.fabric, Transport.RC,
                         recv_cq=self.sched_cq)

    def attach_channel(self, shandle: _ServerHandle, schannel: _ServerChannel) -> None:
        """Route a new request ring into a worker inbox (round-robin)."""
        worker = self._next_channel_rr % self.n_workers
        self._next_channel_rr += 1
        self._rings_per_worker[worker] += 1
        inbox = self._inboxes[worker]

        def on_message(msg, _shandle=shandle, _schannel=schannel, _inbox=inbox):
            msg.arrived_ns = self.sim.now
            _schannel.queued_msgs += 1
            _inbox.try_put((_shandle, _schannel, msg))

        schannel.request_ring.on_message = on_message
        shandle.channels.append(schannel)

    # -- request processing ------------------------------------------------------

    def _execute(self, request: RpcRequest) -> Tuple[int, Any, float]:
        handler = self.handlers.get(request.rpc_id)
        if handler is None:
            raise KeyError("no handler registered for RPC id %d" % request.rpc_id)
        return handler(request)

    def _worker_loop(self, worker_idx: int) -> Generator[Event, None, None]:
        core = self.node.cpu[worker_idx]
        inbox = self._inboxes[worker_idx]
        cpu = self.cpu
        while True:
            shandle, schannel, msg = yield inbox.get()
            t_pop = self.sim.now
            schannel.messages_received += 1
            schannel.queued_msgs -= 1
            schannel.processing = True
            shandle.requests_in_interval += len(msg.entries)
            self.messages_handled += 1
            schannel.request_ring.consume(msg.total_bytes)
            n = len(msg.entries)
            # Network-stack CPU: detect the message (ring poll amortized
            # over the rings this worker scans) and decode each request.
            net_ns = (cpu.ring_poll_ns
                      + cpu.ring_scan_per_qp_ns * self._rings_per_worker[worker_idx]
                      + cpu.decode_ns * n)
            yield core.charge(net_ns, "net-poll")
            responses: List[RpcResponse] = []
            app_ns = 0.0
            for request in msg.entries:
                span = request.span
                if span is not None:
                    # Fold the shared hardware phases of the coalesced
                    # message into this RPC's own trace, then record the
                    # time it waited between ring landing and worker pop.
                    if msg.span is not None:
                        span.adopt(msg.span)
                    span.add_phase("server_queue", msg.arrived_ns, t_pop)
                    span.open("server_handler", t_pop)
                if self.handlers.get(request.rpc_id) is MANUAL_HANDLER:
                    self.manual_inbox.try_put((shandle, schannel, request))
                    continue
                size, payload, cost = self._execute(request)
                app_ns += cost
                responses.append(RpcResponse(
                    thread_id=request.thread_id, seq_id=request.seq_id,
                    rpc_id=request.rpc_id, size=size, payload=payload,
                    span=span,
                ))
                self.requests_handled += 1
            if app_ns > 0:
                yield core.charge(app_ns, "app")
            t_handled = self.sim.now
            for response in responses:
                if response.span is not None:
                    response.span.close("server_handler", t_handled)
            schannel.response_accum.extend(responses)
            # §4.3: the server coalesces responses too.  While more
            # request messages for this QP are already queued, keep
            # accumulating; the last queued message flushes everything in
            # one RDMA write.
            if schannel.response_accum and (
                    schannel.queued_msgs == 0
                    or len(schannel.response_accum) >= self.cfg.max_combine):
                batch, schannel.response_accum = schannel.response_accum, []
                yield from self._flush_responses(core, shandle, schannel,
                                                 batch)
            schannel.processing = False

    def _flush_responses(self, core, shandle: _ServerHandle,
                         schannel: _ServerChannel,
                         responses: List[RpcResponse]) -> Generator[Event, None, None]:
        """Coalesce the responses of one request message into one RDMA
        write back to the client's response ring (§4.3)."""
        rmsg = CoalescedMessage(entries=responses)
        rmsg.piggyback_head = schannel.request_ring.head_bytes
        if schannel.pending_grant:
            rmsg.piggyback_credits = schannel.pending_grant
            schannel.pending_grant = 0
        yield core.charge(self.cpu.header_build_ns + self.cpu.mmio_ns, "net-send")
        if self._obs:
            self.response_degrees[len(responses)] += 1
        t_post = self.sim.now
        if self._trace:
            # Hardware-facing span for the response write; member RPC
            # spans adopt its phases/waits at client-side dispatch so
            # the response leg is attributable too.
            rmsg.span = self.sim.spans.begin(
                "flock.rsp", track="hw:%s" % self.node.name,
                t=t_post, degree=len(responses), bytes=rmsg.total_bytes)
        for response in responses:
            response.posted_ns = t_post
            if response.span is not None:
                # The response leg: server post → client-side completion.
                response.span.open("response", t_post)
        schannel.posted_writes += 1
        signaled = schannel.posted_writes % max(1, self.cfg.signal_every) == 0
        schannel.server_qp.post_send(WorkRequest(
            verb=Verb.WRITE, length=rmsg.total_bytes,
            remote_addr=schannel.resp_addr, rkey=schannel.resp_rkey,
            payload=rmsg, signaled=signaled, span=rmsg.span,
        ), wait=False)
        schannel.responses_sent += len(responses)

    # -- QP scheduler: credit renewals (§5.1, §7) -----------------------------------

    def _renewal_loop(self) -> Generator[Event, None, None]:
        core = self.node.cpu[len(self.node.cpu) - 1]
        while True:
            wc = yield self.sched_cq.wait_pop()
            request = wc.payload
            if not isinstance(request, RenewRequest):
                continue
            yield core.charge(self.cpu.cq_poll_ns + self.cpu.renewal_grant_ns,
                              "net-sched")
            self.renewals_handled += 1
            shandle = self.clients.get(request.client_id)
            if shandle is None:
                continue
            schannel = shandle.channels[request.qp_index]
            self.util.report(request.client_id, request.qp_index,
                             request.median_degree)
            if request.qp_index in shandle.active_set:
                if (schannel.queued_msgs > 0 or schannel.response_accum
                        or schannel.processing):
                    # Responses for queued requests will flush shortly —
                    # piggyback the grant on one of them (§5.1).
                    self.grants_piggybacked += 1
                    schannel.pending_grant += self.cfg.credit_batch
                    _soon(self.sim, self._grant_watchdog, schannel)
                else:
                    # Nothing to piggyback on: the sender is about to run
                    # dry, push a dedicated grant immediately.
                    self.grants_dedicated += 1
                    self._send_control(
                        schannel,
                        CreditGrant(qp_index=schannel.index,
                                    credits=self.cfg.credit_batch),
                        GRANT_BYTES,
                    )
            else:
                # Declined: deactivates the QP at the sender (§5.1).
                self.grants_declined += 1
                self._send_control(
                    schannel, CreditGrant(qp_index=schannel.index, credits=0),
                    GRANT_BYTES,
                )

    def _grant_watchdog(self, schannel: _ServerChannel) -> None:
        """Piggyback grants on responses (§5.1); if the QP goes quiet
        for 1 µs before a response flushes, push a dedicated grant."""
        _later(self.sim, 1_000.0, self._flush_pending_grant, schannel)

    def _flush_pending_grant(self, schannel: _ServerChannel) -> None:
        if schannel.pending_grant:
            credits, schannel.pending_grant = schannel.pending_grant, 0
            self._send_control(
                schannel, CreditGrant(qp_index=schannel.index, credits=credits),
                GRANT_BYTES,
            )

    def _send_control(self, schannel: _ServerChannel, payload,
                      nbytes: int) -> None:
        schannel.server_qp.post_send(WorkRequest(
            verb=Verb.WRITE, length=nbytes, remote_addr=schannel.resp_addr,
            rkey=schannel.resp_rkey, payload=payload, signaled=False,
        ), wait=False)

    # -- QP scheduler: periodic redistribution (§5.1) ---------------------------------

    def _redistribution_loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.sim.sleep(self.cfg.sched_interval_ns)
            self._redistribute()

    def _redistribute(self) -> None:
        if not self.clients:
            return
        per_client = self.util.per_client()
        # Senders that issued requests but have not renewed credits yet
        # (e.g. right after bootstrap, with credits still unspent) are
        # *functioning*, not dormant: fold their observed request count
        # into the utilization signal at one renewal-equivalent per
        # credit batch.
        for cid, shandle in self.clients.items():
            if shandle.requests_in_interval > 0:
                per_client[cid] = (per_client.get(cid, 0.0)
                                   + shandle.requests_in_interval
                                   / max(1, self.cfg.credit_batch))
            shandle.requests_in_interval = 0
        qps_per_client = {cid: len(sh.channels) for cid, sh in self.clients.items()}
        if self.tenancy is not None:
            alloc = self.tenancy.split(per_client, self.cfg.max_aqp,
                                       qps_per_client)
        else:
            alloc = compute_allocation(per_client, self.cfg.max_aqp,
                                       qps_per_client)
        self.redistributions += 1
        for cid, shandle in self.clients.items():
            budget = alloc.get(cid, 1)
            if budget >= len(shandle.channels):
                new_set = list(range(len(shandle.channels)))
            else:
                # Keep the most-utilized QPs active; currently active QPs
                # win ties so the assignment is stable.
                per_qp = self.util.qp_utilization(cid)
                current = set(shandle.active_set)
                ranked = sorted(
                    range(len(shandle.channels)),
                    key=lambda j: (-per_qp.get(j, 0.0), j not in current, j),
                )
                new_set = sorted(ranked[:budget])
            if new_set != sorted(shandle.active_set):
                shandle.active_set = new_set
                now = self.sim.now
                for schannel in shandle.channels:
                    was_active = schannel.active
                    schannel.active = schannel.index in new_set
                    if was_active and not schannel.active:
                        self.hold_ledger.hold((cid, schannel.index), now)
                    elif schannel.active and not was_active:
                        self.hold_ledger.release((cid, schannel.index), now)
                update = ActiveSetUpdate(active_indices=new_set,
                                         credit_batch=self.cfg.credit_batch)
                _soon(self.sim, self._send_control,
                      shandle.channels[new_set[0]], update, ACTIVE_SET_BYTES)
        self.util.reset()

    # -- introspection ---------------------------------------------------------------

    @property
    def total_active_qps(self) -> int:
        return sum(len(sh.active_set) for sh in self.clients.values())

    def report_metrics(self, metrics) -> None:
        """Report the server's ledgers to a metrics registry at run end."""
        metrics.add("flock.server.requests", self.requests_handled)
        metrics.add("flock.server.messages", self.messages_handled)
        metrics.add("flock.server.renewals", self.renewals_handled)
        metrics.add("flock.grants.piggybacked", self.grants_piggybacked)
        metrics.add("flock.grants.dedicated", self.grants_dedicated)
        metrics.add("flock.grants.declined", self.grants_declined)
        metrics.add("flock.redistributions", self.redistributions)
        metrics.add("flock.qp_hold_ns", self.hold_ledger.total_hold_ns)
        metrics.set("flock.active_qps", self.total_active_qps,
                    server=self.node.name)
        metrics.observe("flock.response_degree", 0, 0)  # even when empty
        for value, n in self.response_degrees.items():
            metrics.observe("flock.response_degree", value, n)


class FlockClient:
    """The sender: connection handles, FLock synchronization, dispatch."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 cfg: FlockConfig, seed: int = 0):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cfg = cfg
        self.cpu = node.cpu_cfg
        self.rng = random.Random(seed)
        self.handles: List[ConnectionHandle] = []
        #: RPCs submitted; RPCs and their payload bytes posted inside
        #: coalesced messages (messages and framed bytes are counted by
        #: each channel's :class:`SenderView`).
        self.rpcs_submitted = 0
        self.rpcs_coalesced = 0
        self.rpc_bytes_coalesced = 0
        #: Migrations off a deactivated QP, and the sends they re-homed.
        self.migrations = 0
        self.stranded_slots = 0
        self._obs = sim.instrumented
        self._trace = sim.spans.enabled
        #: {value: count} ledgers of each coalesced message's RPCs and
        #: bytes, kept only when instrumented.
        self.coalescing_degrees: Counter = Counter()
        self.message_bytes: Counter = Counter()
        self._dispatch_inbox: Store = Store(sim)
        #: Coalescing can be disabled for the Fig. 10 ablation.
        self.coalescing_enabled = True
        #: Thread scheduling can be disabled for the Fig. 11 ablation.
        self.thread_scheduling_enabled = True
        self._started = False
        sim.register_component(self)

    # -- connection setup (fl_connect / fl_attach_mreg) ---------------------------

    def connect(self, server: FlockServer, n_qps: Optional[int] = None) -> ConnectionHandle:
        """``fl_connect``: build a connection handle to ``server`` over
        ``n_qps`` RC QPs (``qps_per_handle`` when None)."""
        if n_qps is None:
            n_qps = self.cfg.qps_per_handle
        elif n_qps < 1:
            raise ValueError("n_qps must be >= 1, got %r" % (n_qps,))
        server.start()
        self.start()
        client_id, shandle = server.accept(self.node, n_qps, self.cfg.ring_slots)
        handle = ConnectionHandle(self.sim, client_id, self.node, server.node)
        resp_slots = 4 * self.cfg.credit_batch + 32
        for index in range(n_qps):
            client_qp = QueuePair(self.sim, self.node, self.fabric, Transport.RC)
            server_qp = server.create_server_qp()
            client_qp.connect(server_qp)
            # Request ring lives at the server; response ring at the client.
            req_region = server.node.memory.register(
                max(self.cfg.ring_bytes, self.cfg.ring_slots * 4096))
            request_ring = RingBuffer(self.sim, req_region, self.cfg.ring_slots,
                                      capacity_bytes=self.cfg.ring_bytes,
                                      name="reqring[c%d,q%d]" % (client_id, index))
            resp_region = self.node.memory.register(resp_slots * 4096)
            response_ring = RingBuffer(self.sim, resp_region, resp_slots,
                                       capacity_bytes=8 * self.cfg.ring_bytes,
                                       name="respring[c%d,q%d]" % (client_id, index))
            ctrl_region = server.node.memory.register(4096)
            channel = QpChannel(
                sim=self.sim, index=index, client_qp=client_qp,
                server_qp=server_qp, request_ring=request_ring,
                response_ring=response_ring,
                sender_view=SenderView(self.cfg.ring_bytes),
                tcq=CombiningQueue(self.cfg.max_combine),
                credits=CreditState(self.sim, self.cfg.credit_batch,
                                    self.cfg.credit_renew_threshold),
                ctrl_rkey=ctrl_region.rkey, ctrl_addr=ctrl_region.addr,
            )
            handle.channels.append(channel)
            schannel = _ServerChannel(index, server_qp, request_ring,
                                      resp_region.rkey, resp_region.addr)
            server.attach_channel(shandle, schannel)
            channel._schannel = schannel  # debugging/introspection only

            def on_response(msg, _handle=handle, _channel=channel):
                self._dispatch_inbox.try_put((_handle, _channel, msg))

            response_ring.on_message = on_response
        # Apply the server's initial MAX_AQP-respecting active set.
        for schannel in shandle.channels:
            schannel.active = schannel.index in shandle.active_set
        handle.apply_active_set(shandle.active_set, self.cfg.credit_batch)
        self.handles.append(handle)
        return handle

    def attach_mreg(self, handle: ConnectionHandle, length: int):
        """``fl_attach_mreg``: register a server-side region for memory
        operations through this handle."""
        region = handle.server_node.memory.register(length)
        handle.attached_mrs[region.rkey] = region
        return region

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.spawn(self._response_dispatcher(), name="flock-dispatch")
        self.sim.spawn(self._thread_scheduler_loop(), name="flock-threadsched")

    def report_metrics(self, metrics) -> None:
        """Report the client's ledgers to a metrics registry at run end."""
        channels = [ch for h in self.handles for ch in h.channels]
        metrics.add("flock.client.rpcs", self.rpcs_submitted)
        metrics.add("flock.client.messages",
                    sum(ch.sender_view.messages_sent for ch in channels))
        metrics.add("flock.client.rpcs_coalesced", self.rpcs_coalesced)
        metrics.add("flock.client.rpc_bytes_coalesced",
                    self.rpc_bytes_coalesced)
        metrics.add("flock.migrations", self.migrations)
        metrics.add("flock.stranded_slots", self.stranded_slots)
        metrics.add("flock.renewals_sent",
                    sum(ch.credits.renewals_requested for ch in channels))
        for name, ledger in (("flock.coalescing_degree",
                              self.coalescing_degrees),
                             ("flock.message_bytes", self.message_bytes)):
            metrics.observe(name, 0, 0)  # reported even when empty
            for value, n in ledger.items():
                metrics.observe(name, value, n)

    # -- the send path (fl_send_rpc / fl_recv_res) -----------------------------------

    def call(self, handle: ConnectionHandle, thread_id: int, rpc_id: int,
             size: int, payload: Any = None) -> Generator[Event, None, RpcResponse]:
        """Issue one RPC and wait for its response (send + recv fused,
        the way applications drive ``fl_send_rpc``/``fl_recv_res``)."""
        response_ev = yield from self.send_rpc(handle, thread_id, rpc_id, size, payload)
        response = yield response_ev
        return response

    def send_rpc(self, handle: ConnectionHandle, thread_id: int, rpc_id: int,
                 size: int, payload: Any = None) -> Generator[Event, None, Event]:
        """``fl_send_rpc``: submit a request; returns the response event
        (``fl_recv_res`` is waiting on it)."""
        state = handle.thread(thread_id)
        # Serialize submissions of this OS thread: its coroutines post one
        # at a time, and a leader tenure blocks the thread (§8.5.2).
        yield state.submit_lock.acquire()
        try:
            channel = handle.qp_for_thread(thread_id)
            if state.assigned_qp != channel.index:
                yield from self._drain_for_migration(state, channel)
                channel = handle.qp_for_thread(thread_id)
            seq = state.allocate_seq()
            request = RpcRequest(thread_id=thread_id, seq_id=seq,
                                 rpc_id=rpc_id, size=size, payload=payload,
                                 created_ns=self.sim.now)
            self.rpcs_submitted += 1
            if self._trace:
                request.span = self.sim.spans.begin(
                    "rpc", track="%s/t%d" % (self.node.name, thread_id),
                    t=self.sim.now, rpc_id=rpc_id, size=size)
                # Time between submission and the leader collecting the
                # request into a coalesced message.
                request.span.open("client_queue", self.sim.now)
            response_ev = handle.register_pending(thread_id, seq, channel.index)
            state.stats.record(size)
            # Marshalling + copying into the combining buffer happens on
            # the application thread, in parallel with other followers
            # (§4.2).
            yield self.sim.sleep(self.cpu.marshal_ns
                                 + self.cpu.copy_ns_per_byte * size)
            slot = PendingSend(request, self.sim.now)
            if channel.tcq.enqueue(slot):
                # This thread is the leader: it is busy combining until
                # its coalesced message posts.
                slot.sent_event = sent = self.sim.event()
                self.start_tenure(handle, channel)
                yield sent
        finally:
            state.submit_lock.release()
        return response_ev

    def _drain_for_migration(self, state: ThreadState,
                             channel) -> Generator[Event, None, None]:
        """Before first use of a new QP, wait until every request sent on
        the previous QP has completed (§5.2)."""
        old = state.assigned_qp
        if old is not None and old != channel.index and state.outstanding_per_qp.get(old):
            ev = state.drain_events.get(old)
            if ev is None or ev.triggered:
                ev = Event(self.sim)
                state.drain_events[old] = ev
            yield ev
        state.assigned_qp = channel.index

    def _enqueue(self, handle: ConnectionHandle, channel, slot: PendingSend) -> None:
        if channel.tcq.enqueue(slot):
            self.start_tenure(handle, channel)

    def start_tenure(self, handle: ConnectionHandle, channel) -> None:
        """Start a leader tenure on ``channel`` (its TCQ just elected a
        leader).  The channel's leader process is spawned on first use
        and parks between tenures; waking it takes exactly the
        ready-deque slot a fresh process's kick-start would."""
        wake = channel.leader_wake
        if wake is None:
            self.sim.spawn(self._leader(handle, channel), name="flock-leader")
        else:
            wake.succeed()

    def _note_blocked(self, tcq, resource: str, t0: float) -> None:
        """Record a leader-level stall (out of credits, no ring space) as
        a wait on every request queued behind the leader.  Each
        request is only charged from the moment it enqueued."""
        if not self._trace:
            return
        t1 = self.sim.now
        if t1 <= t0:
            return
        for slot in tcq.pending:
            span = getattr(slot.request, "span", None)
            if span is not None:
                span.add_phase(resource, max(t0, slot.enqueued_ns), t1)

    # -- FLock synchronization: the leader (§4.2) ------------------------------------

    def _leader(self, handle: ConnectionHandle,
                channel) -> Generator[Event, None, None]:
        """The channel's leader process: one tenure per wake-up, parked
        on ``channel.leader_wake`` in between (see :meth:`start_tenure`)."""
        while True:
            yield from self._leader_cycles(handle, channel)
            channel.leader_wake = wake = Event(self.sim)
            yield wake

    def _leader_cycles(self, handle: ConnectionHandle,
                       channel) -> Generator[Event, None, None]:
        """Run combining cycles until the TCQ drains.  Each iteration is
        one (transient) leader tenure; continuing the loop models the
        MCS-style handoff to the next queued thread."""
        tcq = channel.tcq
        while True:
            if not channel.active:
                self._migrate_stranded(handle, channel)
                tcq.leader_active = False
                return
            rpc_pending = any(isinstance(s.request, RpcRequest) for s in tcq.pending)
            if rpc_pending and channel.credits.credits == 0:
                self._maybe_renew(handle, channel)
                wait_t0 = self.sim.now
                yield channel.credits.wait_for_credits()
                self._note_blocked(tcq, "credit_wait", wait_t0)
                continue
            if rpc_pending:
                first = next(s for s in tcq.pending
                             if isinstance(s.request, RpcRequest))
                first_bytes = coalesced_size([first.request.size])
                if not channel.sender_view.has_space(first_bytes):
                    # §4.1: the sender checks its cached copy of the
                    # remote Head and waits for free ring space
                    # (refreshed by heads piggybacked on responses).
                    wait_t0 = self.sim.now
                    yield channel.sender_view.wait_for_space(self.sim,
                                                             first_bytes)
                    self._note_blocked(tcq, "ring_space", wait_t0)
                    continue
            if rpc_pending and self.fabric.dcqcn_active:
                # DCQCN pacing meets FLock synchronization: when the
                # flow's rate was cut, the leader holds the doorbell for
                # the pacing clearance with the combining queue still
                # open — followers keep piling in, so congestion makes
                # coalescing *deepen* (fewer, larger messages into the
                # hot port) rather than throughput-collapse per message.
                state = self.fabric.dcqcn_for(self.node.name,
                                              channel.client_qp.qpn)
                delay = state.clearance(self.sim.now)
                if delay > 0:
                    wait_t0 = self.sim.now
                    yield self.sim.sleep(delay)
                    self._note_blocked(tcq, "ecn_throttle", wait_t0)
                    continue
            # The leader's combining window: while it sets up the header
            # and doorbell, concurrent followers copy their payloads into
            # the message (§4.2) — so the batch is taken AFTER the window,
            # including any arrivals during it.
            window_t0 = self.sim.now
            yield self.sim.sleep(self.cpu.header_build_ns
                                 + self.cpu.mmio_ns)
            limit = tcq.max_combine if self.coalescing_enabled else 1
            if rpc_pending:
                limit = min(limit, max(1, channel.credits.credits))
            byte_budget = min(self.cfg.max_combine_bytes,
                              channel.sender_view.available_bytes())
            batch = tcq.collect(limit, channel.credits.credits, byte_budget)
            if not batch:
                if not tcq.handoff():
                    return
                continue
            yield from self._post_batch(handle, channel, batch, window_t0)
            if not tcq.handoff():
                return

    def _post_batch(self, handle: ConnectionHandle, channel,
                    batch: List[PendingSend],
                    window_t0: Optional[float] = None) -> Generator[Event, None, None]:
        rpc_slots = [s for s in batch if isinstance(s.request, RpcRequest)]
        mem_slots = [s for s in batch if isinstance(s.request, MemOp)]
        # The header/doorbell window was charged before collection; what
        # remains is polling each follower's copy-completion flag.
        if len(batch) > 1:
            yield self.sim.sleep(
                self.cpu.follower_flag_poll_ns * (len(batch) - 1))
        if rpc_slots:
            consumed = channel.credits.try_consume(len(rpc_slots))
            assert consumed, "leader batched more RPCs than credits"
            msg = CoalescedMessage(entries=[s.request for s in rpc_slots])
            msg.msg_id = channel.sender_view.allocate(msg.total_bytes)
            self.rpcs_coalesced += len(rpc_slots)
            self.rpc_bytes_coalesced += sum(s.request.size for s in rpc_slots)
            if self._obs:
                self.coalescing_degrees[len(rpc_slots)] += 1
                self.message_bytes[msg.total_bytes] += 1
            t_post = self.sim.now
            if self._trace:
                # One hardware-facing span per coalesced message; member
                # RPC spans adopt its phases at the server.
                doorbell_t0 = window_t0 if window_t0 is not None else t_post
                msg.span = self.sim.spans.begin(
                    "flock.msg", track="hw:%s" % self.node.name,
                    t=doorbell_t0, qp=channel.index,
                    degree=len(rpc_slots), bytes=msg.total_bytes)
                msg.span.add_phase("doorbell_mmio", doorbell_t0, t_post)
                for slot in rpc_slots:
                    if slot.request.span is not None:
                        slot.request.span.close("client_queue", t_post)
            signaled = channel.next_signaled(self.cfg.signal_every)
            channel.client_qp.post_send(WorkRequest(
                verb=Verb.WRITE, length=msg.total_bytes,
                remote_addr=channel.request_ring.region.addr,
                rkey=channel.request_ring.region.rkey,
                payload=msg, signaled=signaled, span=msg.span,
            ), wait=False)
            channel.tcq.record_message(len(rpc_slots))
        for slot in mem_slots:
            op: MemOp = slot.request
            signaled = channel.next_signaled(self.cfg.signal_every)
            done = channel.client_qp.post_send(WorkRequest(
                verb=op.verb, length=op.size, remote_addr=op.remote_addr,
                rkey=op.rkey, compare=op.compare, swap_or_add=op.swap_or_add,
                payload=op.payload, signaled=signaled,
            ))
            done.add_callback(slot_completion(slot))
        if mem_slots and not rpc_slots:
            # Coalescing degree for pure memory-op batches counts the
            # concurrent operations the leader posted (§6).
            channel.tcq.record_message(len(mem_slots))
        self._maybe_renew(handle, channel)
        for slot in batch:
            if slot.sent_event is not None:
                slot.sent_event.succeed()

    def _maybe_renew(self, handle: ConnectionHandle, channel) -> None:
        if channel.credits.needs_renewal():
            channel.credits.mark_renewal_sent()
            _soon(self.sim, self._send_renewal, handle, channel)

    def _send_renewal(self, handle: ConnectionHandle, channel) -> None:
        """Write-with-imm credit request carrying the median coalescing
        degree since the last renewal (§5.1, §7), posted after one MMIO."""
        request = RenewRequest(client_id=handle.client_id,
                               qp_index=channel.index,
                               median_degree=channel.tcq.median_degree())
        _later(self.sim, self.cpu.mmio_ns, self._post_renewal, channel, request)

    def _post_renewal(self, channel, request: RenewRequest) -> None:
        channel.client_qp.post_send(WorkRequest(
            verb=Verb.WRITE_IMM, length=RENEW_BYTES,
            remote_addr=channel.ctrl_addr, rkey=channel.ctrl_rkey,
            payload=request, imm=channel.index, signaled=False,
        ), wait=False)

    def _migrate_stranded(self, handle: ConnectionHandle, channel) -> None:
        """Re-home queued sends from a deactivated QP onto the threads'
        newly assigned QPs (§5.2)."""
        stranded = list(channel.tcq.pending)
        channel.tcq.pending.clear()
        if stranded:
            self.migrations += 1
            self.stranded_slots += len(stranded)
            if self._trace:
                # The time between the scheduler deactivating this QP and
                # the migration is a scheduler-imposed hold on every
                # stranded request.
                now = self.sim.now
                held_since = handle.holds.held_since(channel.index)
                for slot in stranded:
                    span = getattr(slot.request, "span", None)
                    if span is not None:
                        t0 = max(slot.enqueued_ns,
                                 held_since if held_since is not None else now)
                        span.add_phase("qp_hold", t0, now)
        for slot in stranded:
            thread_id = slot.request.thread_id
            new_channel = handle.qp_for_thread(thread_id)
            entry = None
            if isinstance(slot.request, RpcRequest):
                entry = handle.pending.get((thread_id, slot.request.seq_id))
            if entry is not None:
                state = handle.thread(thread_id)
                state.dec_outstanding(channel.index)
                state.inc_outstanding(new_channel.index)
                handle.pending[(thread_id, slot.request.seq_id)] = (
                    entry[0], new_channel.index)
            self._enqueue(handle, new_channel, slot)

    # -- response dispatcher (§4.3) ------------------------------------------------

    def _response_dispatcher(self) -> Generator[Event, None, None]:
        """One lightweight thread relays responses across all QPs."""
        while True:
            handle, channel, msg = yield self._dispatch_inbox.get()
            if isinstance(msg, CoalescedMessage):
                channel.response_ring.consume(msg.total_bytes)
            elif isinstance(msg, CreditGrant):
                channel.response_ring.consume(GRANT_BYTES)
            else:
                channel.response_ring.consume(ACTIVE_SET_BYTES)
            if isinstance(msg, CreditGrant):
                yield self.sim.sleep(self.cpu.ring_poll_ns)
                channel.credits.on_grant(msg)
                if msg.credits <= 0:
                    channel.active = False
                    handle.holds.hold(channel.index, self.sim.now)
                    self._migrate_stranded(handle, channel)
                continue
            if isinstance(msg, ActiveSetUpdate):
                yield self.sim.sleep(self.cpu.ring_poll_ns)
                self._apply_active_set(handle, msg)
                continue
            yield self.sim.sleep(self.cpu.ring_poll_ns
                                 + self.cpu.response_entry_ns
                                 * len(msg.entries))
            channel.sender_view.observe_head(msg.piggyback_head)
            if msg.piggyback_credits:
                channel.credits.on_grant(CreditGrant(
                    qp_index=channel.index, credits=msg.piggyback_credits))
            t_done = self.sim.now
            for response in msg.entries:
                span = response.span
                if span is not None:
                    if msg.span is not None:
                        # Fold the response write's hardware intervals
                        # into the RPC span (the message span becomes a
                        # donor, so its waits are not double-counted).
                        span.adopt(msg.span)
                    span.close("response", t_done)
                    span.finish(t_done)
                handle.complete_pending(response.thread_id, response.seq_id,
                                        response)

    def _apply_active_set(self, handle: ConnectionHandle,
                          update: ActiveSetUpdate) -> None:
        stranded = handle.apply_active_set(update.active_indices,
                                           update.credit_batch)
        # Threads mapped to deactivated QPs get re-striped immediately;
        # Algorithm 1 refines the mapping at the next scheduling tick.
        for thread_id, qp_index in list(handle.thread_qp_map.items()):
            if not handle.channels[qp_index].active:
                del handle.thread_qp_map[thread_id]
        for slot in stranded:
            new_channel = handle.qp_for_thread(slot.request.thread_id)
            self._enqueue(handle, new_channel, slot)

    # -- sender-side thread scheduler (§5.2) ------------------------------------------

    def _thread_scheduler_loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.sim.sleep(self.cfg.thread_sched_interval_ns)
            if not self.thread_scheduling_enabled:
                continue
            for handle in self.handles:
                self.reschedule_threads(handle)

    def reschedule_threads(self, handle: ConnectionHandle) -> None:
        active = handle.active_indices
        if not active or not handle.threads:
            return
        snapshots = [state.stats.snapshot_and_reset()
                     for state in handle.threads.values()]
        mapping = assign_threads(snapshots, active, rng=self.rng,
                                 current=handle.thread_qp_map)
        handle.apply_assignment(mapping)


def _soon(sim: Simulator, fn: Callable, *args) -> None:
    """Call ``fn(*args)`` from a fresh zero-delay event.

    Runs ``fn`` where a spawned one-shot process that never yields would
    run it: the event takes the ready-deque slot of that process's
    kick-start.  Unlike the process, it fires no completion event, which
    nothing would wait on."""
    ev = Event(sim)
    ev.callbacks.append(lambda _ev: fn(*args))
    ev.succeed()


def _later(sim: Simulator, delay: float, fn: Callable, *args) -> None:
    """Call ``fn(*args)`` when a ``delay`` ns timeout, pushed now, fires."""
    sim.timeout(delay).callbacks.append(lambda _ev: fn(*args))


def slot_completion(slot: PendingSend):
    """Callback firing a memory-op slot's completion with its WC."""

    def _cb(event):
        response_ev = getattr(slot, "response_event", None)
        if response_ev is not None and not response_ev.triggered:
            response_ev.succeed(event.value)

    return _cb
