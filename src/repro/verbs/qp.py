"""Queue pairs: the verbs execution engine.

A :class:`QueuePair` ties together a node, its RNIC, and the fabric, and
implements the semantics of every verb in Table 1:

* two-sided ``send``/``recv`` (all transports) — consumes a posted
  receive buffer at the target and generates a receive completion;
* one-sided ``write``/``write_imm``/``read`` (RC, write also UC) —
  executed by the *remote RNIC* with no remote CPU;
* atomics ``fetch_add``/``cmp_swap`` (RC) — executed by the remote RNIC,
  serialized per 8-byte address.

Timing: every verb pays source-NIC processing + wire + propagation +
destination-NIC processing via :class:`repro.net.Fabric`.  Reliable (RC)
initiator completions arrive after the hardware ACK (one extra
propagation); UD completions arrive at local TX time.  Completions are
DMA-ed to a CQ only when the WR is signaled (§7).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..hw.memory import AccessError, MemoryRegion
from ..net.fabric import Fabric, Node
from ..obs import faults
from ..sim import Event, Process, Resource, Simulator, Store
from .cq import CompletionQueue
from .transport import Transport, Verb, max_message_size, supports
from .wr import Completion, WcStatus, WorkRequest

__all__ = ["QueuePair", "VerbError"]

#: Wire size of a read/atomic request (header-only on the request path).
_REQUEST_HEADER_BYTES = 28
#: Wire size of an ACK/atomic response frame.
_ACK_BYTES = 12


class VerbError(Exception):
    """Posting a verb the transport does not support, or misuse."""


def _atomic_lock(node: Node, sim: Simulator, rkey: int, addr: int) -> Resource:
    """Per-(region, address) serialization point for remote atomics."""
    locks = getattr(node, "_atomic_locks", None)
    if locks is None:
        locks = {}
        node._atomic_locks = locks
    key = (rkey, addr)
    lock = locks.get(key)
    if lock is None:
        lock = Resource(sim, 1)
        locks[key] = lock
    return lock


class QueuePair:
    """One send/recv queue pair on a node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        fabric: Fabric,
        transport: Transport,
        recv_cq: Optional[CompletionQueue] = None,
    ):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.transport = transport
        self.qpn = node.alloc_qpn()
        # Note: CQs define __len__, so test identity rather than truth.
        self.send_cq = CompletionQueue(sim, name="scq")
        self.recv_cq = recv_cq if recv_cq is not None else CompletionQueue(sim, name="rcq")
        self.remote: Optional["QueuePair"] = None
        #: Posted receive buffers (their byte capacities).
        self.recv_buffers = Store(sim)
        self.recv_drops = 0
        self.sends_posted = 0
        self.sends_signaled = 0
        self.sends_completed = 0
        self.destroyed = False
        self._trace = sim.spans.enabled
        sim.register_component(self)

    def report_metrics(self, metrics) -> None:
        """Report this QP's ledgers to a metrics registry at run end."""
        metrics.add("verbs.wrs_posted", self.sends_posted)
        metrics.add("verbs.wrs_signaled", self.sends_signaled)
        metrics.add("verbs.recv_drops", self.recv_drops)

    # -- connection management ------------------------------------------

    def connect(self, peer: "QueuePair") -> None:
        """Connect both directions (RC/UC only; UD is connectionless)."""
        if not self.transport.connected:
            raise VerbError("UD QPs are connectionless")
        if peer.transport is not self.transport:
            raise VerbError("transport mismatch: %s vs %s"
                            % (self.transport, peer.transport))
        if self.remote is not None or peer.remote is not None:
            raise VerbError("QP already connected")
        self.remote = peer
        peer.remote = self

    def destroy(self) -> None:
        """Tear down; also invalidates the cached context in both NICs."""
        self.destroyed = True
        self.node.rnic.qp_cache.invalidate(("qp", self.qpn))
        if self.remote is not None:
            self.remote.remote = None
            self.remote = None

    # -- receive path -----------------------------------------------------

    def post_recv(self, length: int = 4096, n: int = 1) -> None:
        """Post ``n`` receive buffers of ``length`` bytes each."""
        if n < 1:
            raise ValueError("n must be >= 1")
        for _ in range(n):
            self.recv_buffers.try_put(length)

    @property
    def recv_posted(self) -> int:
        return len(self.recv_buffers)

    # -- send path ----------------------------------------------------------

    def post_send(self, wr: WorkRequest, remote: Optional["QueuePair"] = None,
                  *, wait: bool = True) -> Optional[Process]:
        """Submit a work request; returns the initiator-completion event,
        or ``None`` when ``wait`` is False.

        The event is the verb's own process: it fires when the operation
        completes *at the initiator* (TX done for UD, ACK/data returned
        for RC) with the :class:`Completion`.  A CQE is additionally
        pushed to ``send_cq`` iff ``wr.signaled`` — callers model
        selective signaling by clearing the flag.

        ``wait=False`` is for callers that drop the handle: the verb runs
        as a detached process whose completion fires no event.  The
        verb itself is unchanged — the ACK leg, the CQE of a signaled WR
        and the WR span's end all happen as with ``wait=True``.

        ``remote`` addresses the target for UD sends; RC/UC use the
        connected peer.
        """
        if self.destroyed:
            raise VerbError("QP destroyed")
        if not supports(self.transport, wr.verb):
            raise VerbError("%s does not support %s (Table 1)"
                            % (self.transport.value, wr.verb.value))
        if wr.length > max_message_size(self.transport):
            raise VerbError(
                "message of %d bytes exceeds %s limit %d"
                % (wr.length, self.transport.value, max_message_size(self.transport))
            )
        if self.transport.connected:
            if remote is not None and remote is not self.remote:
                raise VerbError("connected QP cannot address arbitrary peers")
            target = self.remote
            if target is None:
                raise VerbError("QP not connected")
        else:
            target = remote
            if target is None:
                raise VerbError("UD send requires a remote QP")
        self.sends_posted += 1
        if wr.signaled:
            self.sends_signaled += 1
        if wr.span is None and self._trace:
            # No upper layer attached a span: trace this WR on its own
            # (raw verbs paths — Fig. 2a reads, baseline RPCs).
            wr.span = self.sim.spans.begin(
                "wr.%s" % wr.verb.value, track="hw:%s" % self.node.name,
                t=self.sim.now, bytes=wr.length, qpn=self.qpn)
        proc = self.sim.spawn(self._execute(wr, target), name="verb",
                              detached=not wait)
        return proc if wait else None

    # -- verb execution -------------------------------------------------------

    def _push_send_cqe(self, wr: WorkRequest, wc: Completion) -> None:
        if wr.signaled:
            if wc.span is None:
                # Let the CQ blame reap delay on the traced work
                # (``cq_poll`` waits).
                wc.span = wr.span
            if not (faults.ACTIVE and "verbs.leak_cqe" in faults.ACTIVE):
                self.send_cq.push(wc)
            self.node.rnic.cqes_generated += 1

    def _congestion_gate(self, wr: WorkRequest) -> Generator[Event, None, None]:
        """DCQCN pacing for RC flows under the switched-fabric model.

        After the flow's rate was cut by a CNP, outgoing work requests
        are spaced to the current rate before the NIC pipeline sees
        them; the stall is recorded as an ``ecn_throttle`` wait.
        A flow at line rate pays nothing here (the TX port already
        serializes at link speed).
        """
        fabric = self.fabric
        if not (self.transport.reliable and fabric.dcqcn_active):
            return
        state = fabric.dcqcn_for(self.node.name, self.qpn)
        delay = state.send_delay(
            self.node.rnic.wire_bytes(wr.length), self.sim.now)
        if delay > 0:
            if wr.span is not None:
                wr.span.add_phase(
                    "ecn_throttle", self.sim.now, self.sim.now + delay)
            yield self.sim.timeout(delay)

    def _execute(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        yield from self._congestion_gate(wr)
        verb = wr.verb
        if verb is Verb.SEND:
            wc = yield from self._do_send(wr, target)
        elif verb in (Verb.WRITE, Verb.WRITE_IMM):
            wc = yield from self._do_write(wr, target)
        elif verb is Verb.READ:
            wc = yield from self._do_read(wr, target)
        elif verb in (Verb.FETCH_ADD, Verb.CMP_SWAP):
            wc = yield from self._do_atomic(wr, target)
        else:
            raise VerbError("cannot post %s" % verb)
        self.sends_completed += 1
        if wr.span is not None:
            # Covers auto-created WR spans and FLock message spans alike:
            # the span ends when the verb completes at the initiator.
            wr.span.finish(self.sim.now)
        # The process itself is the initiator completion: returning
        # fires it with ``wc`` at the instant the verb completes.
        return wc

    def _do_send(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        jitter = self.fabric.cfg.ud_jitter_ns if self.transport is Transport.UD else 0.0
        delivered = yield from self.fabric.transfer(
            self.node, target.node, wr.length, self.qpn, target.qpn,
            reliable=self.transport.reliable, jitter_ns=jitter,
            span=wr.span,
        )
        if delivered:
            ok, _buf = target.recv_buffers.try_get()
            if not ok and self.transport is Transport.RC:
                # RC receiver-not-ready: hardware retries until a buffer
                # is posted (RNR NAK loop), modelled as a blocking wait.
                yield target.recv_buffers.get()
                ok = True
            if ok:
                yield from target.node.rnic.cqe_dma()
                target.recv_cq.push(Completion(
                    wr_id=wr.wr_id, verb=Verb.RECV, byte_len=wr.length,
                    payload=wr.payload, qpn=target.qpn,
                    src=(self.node.name, self.qpn), span=wr.span,
                ))
            else:
                target.recv_drops += 1
        wc = Completion(wr_id=wr.wr_id, verb=Verb.SEND, byte_len=wr.length,
                        qpn=self.qpn)
        if self.transport.reliable:
            yield self.sim.timeout(self.fabric.cfg.propagation_ns)
        self._push_send_cqe(wr, wc)
        return wc

    def _locate(self, target: "QueuePair", wr: WorkRequest, op: str) -> MemoryRegion:
        region = target.node.memory.lookup(wr.rkey)
        region.check(wr.remote_addr, max(wr.length, 1), op)
        return region

    def _do_write(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        try:
            region = self._locate(target, wr, "write")
        except AccessError as exc:
            wc = Completion(wr_id=wr.wr_id, verb=wr.verb,
                            status=WcStatus.REM_ACCESS_ERR, payload=exc)
            self._push_send_cqe(wr, wc)
            return wc
        delivered = yield from self.fabric.transfer(
            self.node, target.node, wr.length, self.qpn, target.qpn,
            rkeys=(wr.rkey,), reliable=self.transport.reliable,
            span=wr.span,
        )
        if delivered:
            sink = region.sink
            if sink is not None:
                sink(wr.payload, wr.remote_addr, wr.length)
            if wr.verb is Verb.WRITE_IMM:
                # write-with-imm raises a completion in the remote RCQ
                # (§7: FLock uses this so credit requests are seen by
                # polling the RCQ, decoupled from memory-polling request
                # dispatchers).
                yield from target.node.rnic.cqe_dma()
                target.recv_cq.push(Completion(
                    wr_id=wr.wr_id, verb=Verb.WRITE_IMM, byte_len=wr.length,
                    payload=wr.payload, imm=wr.imm, qpn=target.qpn,
                    src=(self.node.name, self.qpn), span=wr.span,
                ))
        wc = Completion(wr_id=wr.wr_id, verb=wr.verb, byte_len=wr.length,
                        qpn=self.qpn)
        if self.transport.reliable:
            yield self.sim.timeout(self.fabric.cfg.propagation_ns)
        self._push_send_cqe(wr, wc)
        return wc

    def _do_read(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        try:
            region = self._locate(target, wr, "read")
        except AccessError as exc:
            wc = Completion(wr_id=wr.wr_id, verb=wr.verb,
                            status=WcStatus.REM_ACCESS_ERR, payload=exc)
            self._push_send_cqe(wr, wc)
            return wc
        # Request: header-only frame to the responder.
        yield from self.fabric.transfer(
            self.node, target.node, _REQUEST_HEADER_BYTES, self.qpn, target.qpn,
            rkeys=(wr.rkey,), reliable=True, span=wr.span,
        )
        # Response: data-bearing frame back, executed by the remote RNIC
        # with zero remote-CPU involvement.
        yield from self.fabric.transfer(
            target.node, self.node, wr.length, target.qpn, self.qpn,
            reliable=True, span=wr.span,
        )
        value = region.words.get(wr.remote_addr) if wr.length <= 8 else None
        wc = Completion(wr_id=wr.wr_id, verb=Verb.READ, byte_len=wr.length,
                        payload=value, qpn=self.qpn)
        self._push_send_cqe(wr, wc)
        return wc

    def _do_atomic(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        try:
            region = self._locate(target, wr, "atomic")
        except AccessError as exc:
            wc = Completion(wr_id=wr.wr_id, verb=wr.verb,
                            status=WcStatus.REM_ACCESS_ERR, payload=exc)
            self._push_send_cqe(wr, wc)
            return wc
        yield from self.fabric.transfer(
            self.node, target.node, _REQUEST_HEADER_BYTES, self.qpn, target.qpn,
            rkeys=(wr.rkey,), reliable=True, span=wr.span,
        )
        lock = _atomic_lock(target.node, self.sim, wr.rkey, wr.remote_addr)
        yield lock.acquire()
        try:
            old = region.words.get(wr.remote_addr, 0)
            if wr.verb is Verb.FETCH_ADD:
                region.words[wr.remote_addr] = old + wr.swap_or_add
            else:  # CMP_SWAP
                if old == wr.compare:
                    region.words[wr.remote_addr] = wr.swap_or_add
        finally:
            lock.release()
        yield from self.fabric.transfer(
            target.node, self.node, _ACK_BYTES, target.qpn, self.qpn,
            reliable=True, span=wr.span,
        )
        wc = Completion(wr_id=wr.wr_id, verb=wr.verb, byte_len=8,
                        payload=old, qpn=self.qpn)
        self._push_send_cqe(wr, wc)
        return wc
