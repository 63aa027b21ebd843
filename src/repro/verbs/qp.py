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

    __slots__ = ("sim", "node", "fabric", "transport", "_reliable",
                 "_connected", "qpn", "_send_cq", "_recv_cq", "remote",
                 "recv_buffers", "recv_drops", "sends_posted",
                 "sends_signaled", "sends_completed", "_trace")

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
        # Read on every WR: cached, since the enum properties are
        # Python-level calls.
        self._reliable = transport.reliable
        self._connected = transport.connected
        self.qpn = node.alloc_qpn()
        # Built on first use (see send_cq): the unsignaled work of most
        # QPs never needs a CQ.  CQs define __len__, so test identity
        # rather than truth.
        self._send_cq: Optional[CompletionQueue] = None
        self._recv_cq = recv_cq
        self.remote: Optional["QueuePair"] = None
        #: Posted receive buffers (their byte capacities).
        self.recv_buffers = Store(sim)
        self.recv_drops = 0
        self.sends_posted = 0
        self.sends_signaled = 0
        self.sends_completed = 0
        self._trace = sim.spans.enabled
        sim.register_component(self)

    def report_metrics(self, metrics) -> None:
        """Report this QP's ledgers to a metrics registry at run end."""
        metrics.add("verbs.wrs_posted", self.sends_posted)
        metrics.add("verbs.wrs_signaled", self.sends_signaled)
        metrics.add("verbs.recv_drops", self.recv_drops)
        if self._send_cq is None or self._recv_cq is None:
            CompletionQueue.report_unused(metrics)

    @property
    def send_cq(self) -> CompletionQueue:
        """The send CQ, built and registered the first time it is read."""
        cq = self._send_cq
        if cq is None:
            cq = self._send_cq = CompletionQueue(self.sim, name="scq")
        return cq

    @property
    def recv_cq(self) -> CompletionQueue:
        """The receive CQ: the one passed to the constructor, else one
        built and registered the first time it is read."""
        cq = self._recv_cq
        if cq is None:
            cq = self._recv_cq = CompletionQueue(self.sim, name="rcq")
        return cq

    # -- connection management ------------------------------------------

    def connect(self, peer: "QueuePair") -> None:
        """Connect both directions (RC/UC only; UD is connectionless)."""
        if not self._connected:
            raise VerbError("UD QPs are connectionless")
        if peer.transport is not self.transport:
            raise VerbError("transport mismatch: %s vs %s"
                            % (self.transport, peer.transport))
        if self.remote is not None or peer.remote is not None:
            raise VerbError("QP already connected")
        self.remote = peer
        peer.remote = self

    # -- receive path -----------------------------------------------------

    def post_recv(self, length: int = 4096, n: int = 1) -> None:
        """Post ``n`` receive buffers of ``length`` bytes each."""
        if n < 1:
            raise ValueError("n must be >= 1")
        for _ in range(n):
            self.recv_buffers.try_put(length)

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
        verb itself is unchanged — the CQE of a signaled WR and the WR
        span's end happen as with ``wait=True``.  Only an unsignaled
        RC SEND or WRITE whose ACK lands inside the run skips waiting
        for it (see :meth:`_do_write`).

        ``remote`` addresses the target for UD sends; RC/UC use the
        connected peer.
        """
        if not supports(self.transport, wr.verb):
            raise VerbError("%s does not support %s (Table 1)"
                            % (self.transport.value, wr.verb.value))
        if wr.length > max_message_size(self.transport):
            raise VerbError(
                "message of %d bytes exceeds %s limit %d"
                % (wr.length, self.transport.value, max_message_size(self.transport))
            )
        if self._connected:
            if remote is not None and remote is not self.remote:
                raise VerbError("connected QP cannot address arbitrary peers")
            target = self.remote
            if target is None:
                raise VerbError("QP not connected")
        else:
            target = remote
            if target is None:
                raise VerbError("UD send requires a remote QP")
        # The process runs the verb's own generator: it is the initiator
        # completion, fired with the verb's ``wc`` when it returns.
        verb = wr.verb
        if verb is Verb.SEND:
            gen = self._do_send(wr, target, not wait)
        elif verb is Verb.WRITE or verb is Verb.WRITE_IMM:
            gen = self._do_write(wr, target, not wait)
        elif verb is Verb.READ:
            gen = self._do_read(wr, target)
        elif verb is Verb.FETCH_ADD or verb is Verb.CMP_SWAP:
            gen = self._do_atomic(wr, target)
        else:
            raise VerbError("cannot post %s" % verb.value)
        if self._reliable and self.fabric.dcqcn_active:
            gen = self._congestion_gate(wr, gen)
        self.sends_posted += 1
        if wr.signaled:
            self.sends_signaled += 1
        if wr.span is None and self._trace:
            # No upper layer attached a span: trace this WR on its own
            # (raw verbs paths — Fig. 2a reads, baseline RPCs).
            wr.span = self.sim.spans.begin(
                "wr.%s" % wr.verb.value, track="hw:%s" % self.node.name,
                t=self.sim.now, bytes=wr.length, qpn=self.qpn)
        proc = self.sim.spawn(gen, name="verb", detached=not wait)
        return proc if wait else None

    # -- verb execution -------------------------------------------------------

    def _complete(self, wr: WorkRequest, wc: Completion,
                  t: float) -> Completion:
        """The WR completes at the initiator at ``t``: a signaled WR's
        CQE, the completed count and the end of the WR's span.

        ``t`` is later than ``now`` only for an ACK left unwaited (see
        :meth:`_do_write`), which has no CQE.
        """
        if wr.signaled:
            if wc.span is None:
                # Let the CQ blame reap delay on the traced work
                # (``cq_poll`` waits).
                wc.span = wr.span
            if not (faults.ACTIVE and "verbs.leak_cqe" in faults.ACTIVE):
                self.send_cq.push(wc)
            self.node.rnic.cqes_generated += 1
        self.sends_completed += 1
        if wr.span is not None:
            # Covers auto-created WR spans and FLock message spans alike.
            wr.span.finish(t)
        return wc

    def _congestion_gate(
        self, wr: WorkRequest, verb: Generator[Event, None, Completion]
    ) -> Generator[Event, None, Completion]:
        """DCQCN pacing for RC flows under the switched-fabric model,
        then the verb itself; :meth:`post_send` wraps only those verbs
        in it.

        After the flow's rate was cut by a CNP, outgoing work requests
        are spaced to the current rate before the NIC pipeline sees
        them; the stall is recorded as an ``ecn_throttle`` wait.
        A flow at line rate pays nothing here (the TX port already
        serializes at link speed).
        """
        state = self.fabric.dcqcn_for(self.node.name, self.qpn)
        delay = state.send_delay(
            self.node.rnic.wire_bytes(wr.length), self.sim.now)
        if delay > 0:
            if wr.span is not None:
                wr.span.add_phase(
                    "ecn_throttle", self.sim.now, self.sim.now + delay)
            yield self.sim.sleep(delay)
        return (yield from verb)

    def _do_send(
        self, wr: WorkRequest, target: "QueuePair", detached: bool
    ) -> Generator[Event, None, Completion]:
        jitter = self.fabric.cfg.ud_jitter_ns if self.transport is Transport.UD else 0.0
        delivered = yield from self.fabric.transfer(
            self.node, target.node, wr.length, self.qpn, target.qpn,
            reliable=self._reliable, jitter_ns=jitter,
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
        t = self.sim.now
        if self._reliable:
            # The ACK leg, left unwaited as in _do_write.
            delay = self.fabric.cfg.propagation_ns
            t += delay
            if not detached or wr.signaled or t > self.sim.horizon:
                yield self.sim.sleep(delay)
        return self._complete(wr, wc, t)

    def _locate(self, target: "QueuePair", wr: WorkRequest, op: str) -> MemoryRegion:
        region = target.node.memory.lookup(wr.rkey)
        region.check(wr.remote_addr, max(wr.length, 1), op)
        return region

    def _do_write(
        self, wr: WorkRequest, target: "QueuePair", detached: bool
    ) -> Generator[Event, None, Completion]:
        try:
            region = self._locate(target, wr, "write")
        except AccessError as exc:
            wc = Completion(wr_id=wr.wr_id, verb=wr.verb,
                            status=WcStatus.REM_ACCESS_ERR, payload=exc)
            return self._complete(wr, wc, self.sim.now)
        delivered = yield from self.fabric.transfer(
            self.node, target.node, wr.length, self.qpn, target.qpn,
            rkeys=(wr.rkey,), reliable=self._reliable,
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
        t = self.sim.now
        if self._reliable:
            # The ACK leg: one propagation back to the initiator.
            # Nothing observes the ACK of an unsignaled WR on a detached
            # process but the completed count and the span's end, which
            # _complete stamps with the time the ACK lands.  So an ACK
            # landing inside the run's horizon is not waited for; one
            # past it is, so that run-end flushes and the counts at the
            # end of each run stay as they were.
            delay = self.fabric.cfg.propagation_ns
            t += delay
            if not detached or wr.signaled or t > self.sim.horizon:
                yield self.sim.sleep(delay)
        return self._complete(wr, wc, t)

    def _do_read(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        try:
            region = self._locate(target, wr, "read")
        except AccessError as exc:
            wc = Completion(wr_id=wr.wr_id, verb=wr.verb,
                            status=WcStatus.REM_ACCESS_ERR, payload=exc)
            return self._complete(wr, wc, self.sim.now)
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
        return self._complete(wr, wc, self.sim.now)

    def _do_atomic(
        self, wr: WorkRequest, target: "QueuePair"
    ) -> Generator[Event, None, Completion]:
        try:
            region = self._locate(target, wr, "atomic")
        except AccessError as exc:
            wc = Completion(wr_id=wr.wr_id, verb=wr.verb,
                            status=WcStatus.REM_ACCESS_ERR, payload=exc)
            return self._complete(wr, wc, self.sim.now)
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
        return self._complete(wr, wc, self.sim.now)
