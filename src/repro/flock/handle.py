"""The connection handle abstraction (paper §3).

A :class:`ConnectionHandle` gives application threads one logical
connection to a remote node while internally managing a *set* of RC QPs,
their request/response rings, combining queues, credit state, and the
thread→QP assignment that the sender-side scheduler maintains.  All
Table-2 APIs operate on a handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..sim import Event, Simulator
from ..verbs import QueuePair, Verb
from .credits import CreditState
from .message import RpcRequest
from .qp_scheduler import HoldLedger
from .ringbuf import RingBuffer, SenderView
from .tcq import CombiningQueue, PendingSend
from .thread_scheduler import ThreadStats

__all__ = ["MemOp", "ThreadState", "QpChannel", "ConnectionHandle"]


@dataclass
class MemOp:
    """A one-sided memory/atomic operation queued through FLock sync (§6).

    Unlike RPC requests these are not payload-coalesced: followers
    delegate *posting* to the leader, which links the work requests and
    rings one doorbell for the whole batch.
    """

    thread_id: int
    verb: Verb
    size: int
    remote_addr: int
    rkey: int
    compare: int = 0
    swap_or_add: int = 0
    payload: Any = None
    created_ns: float = 0.0

    @property
    def seq_id(self) -> int:  # uniform interface with RpcRequest for stats
        return -1


class ThreadState:
    """Per-application-thread bookkeeping inside a handle."""

    __slots__ = ("thread_id", "next_seq", "stats", "outstanding_per_qp",
                 "assigned_qp", "drain_events", "submit_lock")

    def __init__(self, thread_id: int, sim: Optional[Simulator] = None):
        self.thread_id = thread_id
        self.next_seq = 0
        self.stats = ThreadStats(thread_id)
        #: Outstanding requests per QP index — used to drain the old QP
        #: before migrating to a new one (paper §5.2).
        self.outstanding_per_qp: Dict[int, int] = {}
        self.assigned_qp: Optional[int] = None
        self.drain_events: Dict[int, Event] = {}
        #: OS threads are serial: coroutines of one thread submit one at a
        #: time, and a leader tenure blocks the thread until its message
        #: posts — which is why same-thread requests do not coalesce
        #: (paper §8.5.2).
        from ..sim import Resource  # local import avoids a cycle at load
        self.submit_lock = Resource(sim, 1) if sim is not None else None

    def allocate_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def inc_outstanding(self, qp_index: int) -> None:
        self.outstanding_per_qp[qp_index] = self.outstanding_per_qp.get(qp_index, 0) + 1

    def dec_outstanding(self, qp_index: int) -> None:
        n = self.outstanding_per_qp.get(qp_index, 0) - 1
        if n <= 0:
            self.outstanding_per_qp.pop(qp_index, None)
            ev = self.drain_events.pop(qp_index, None)
            if ev is not None and not ev.triggered:
                ev.succeed()
        else:
            self.outstanding_per_qp[qp_index] = n


class QpChannel:
    """One RC QP of a handle plus all its FLock-side state."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        client_qp: QueuePair,
        server_qp: QueuePair,
        request_ring: RingBuffer,
        response_ring: RingBuffer,
        sender_view: SenderView,
        tcq: CombiningQueue,
        credits: CreditState,
        ctrl_rkey: int,
        ctrl_addr: int,
    ):
        self.sim = sim
        self.index = index
        self.client_qp = client_qp
        self.server_qp = server_qp
        self.request_ring = request_ring
        self.response_ring = response_ring
        self.sender_view = sender_view
        self.tcq = tcq
        self.credits = credits
        #: Control region at the server for credit-renew write-with-imm.
        self.ctrl_rkey = ctrl_rkey
        self.ctrl_addr = ctrl_addr
        self.active = True
        #: Counter driving selective signaling (§7).
        self.posted_writes = 0
        #: The event this QP's parked leader process waits on between
        #: tenures; None until the first tenure spawns the process.
        self.leader_wake: Optional[Event] = None

    def next_signaled(self, signal_every: int) -> bool:
        """Selective signaling: 1 signaled WR out of every N."""
        self.posted_writes += 1
        return self.posted_writes % max(1, signal_every) == 0


class ConnectionHandle:
    """One-to-one connectivity to a remote node over a pool of RC QPs."""

    def __init__(self, sim: Simulator, client_id: int, client_node, server_node):
        self.sim = sim
        self.client_id = client_id
        self.client_node = client_node
        self.server_node = server_node
        self.channels: List[QpChannel] = []
        self.threads: Dict[int, ThreadState] = {}
        self.thread_qp_map: Dict[int, int] = {}
        #: (thread_id, seq_id) -> (response event, qp index at send time).
        self.pending: Dict[tuple, tuple] = {}
        #: Memory regions attached via fl_attach_mreg (rkey -> region).
        self.attached_mrs: Dict[int, Any] = {}
        self.rpcs_completed = 0
        #: Deactivation windows per QP index — how long the receiver-side
        #: QP scheduler held each channel (feeds ``qp_hold`` waits).
        self.holds = HoldLedger()

    # -- threads ------------------------------------------------------------

    def thread(self, thread_id: int) -> ThreadState:
        state = self.threads.get(thread_id)
        if state is None:
            state = ThreadState(thread_id, self.sim)
            self.threads[thread_id] = state
        return state

    # -- QP selection ----------------------------------------------------------

    @property
    def active_indices(self) -> List[int]:
        return [ch.index for ch in self.channels if ch.active]

    def qp_for_thread(self, thread_id: int) -> QpChannel:
        """The channel the thread scheduler currently assigns this thread.

        Falls back to striping across active QPs for unmapped threads and
        repairs stale assignments pointing at deactivated QPs.
        """
        idx = self.thread_qp_map.get(thread_id)
        if idx is not None and self.channels[idx].active:
            return self.channels[idx]
        active = self.active_indices
        if not active:
            # Every QP deactivated: the scheduler guarantees at least one
            # QP per sender, so treat channel 0 as the dormant fallback.
            active = [0]
            self.channels[0].active = True
            self.channels[0].credits.active = True
            self.holds.release(0, self.sim.now)
        idx = active[thread_id % len(active)]
        self.thread_qp_map[thread_id] = idx
        return self.channels[idx]

    def apply_assignment(self, mapping: Dict[int, int]) -> None:
        """Install a new thread→QP map from the thread scheduler."""
        for thread_id, qp_index in mapping.items():
            self.thread_qp_map[thread_id] = qp_index

    # -- active set management ----------------------------------------------------

    def apply_active_set(self, active: List[int], credit_batch: int) -> List[PendingSend]:
        """Activate/deactivate channels per the QP scheduler's decision.

        Returns the queued sends stranded on deactivated channels; the
        caller re-homes them via the current thread assignment.
        """
        active_set = set(active)
        stranded: List[PendingSend] = []
        now = self.sim.now
        for ch in self.channels:
            if ch.index in active_set:
                if not ch.active:
                    ch.active = True
                    ch.credits.reactivate(credit_batch)
                    self.holds.release(ch.index, now)
            elif ch.active:
                ch.active = False
                ch.credits.deactivate()
                self.holds.hold(ch.index, now)
                stranded.extend(ch.tcq.pending)
                ch.tcq.pending.clear()
        return stranded

    # -- completion plumbing ---------------------------------------------------------

    def register_pending(self, thread_id: int, seq_id: int, qp_index: int) -> Event:
        ev = self.sim.event()
        self.pending[(thread_id, seq_id)] = (ev, qp_index)
        self.thread(thread_id).inc_outstanding(qp_index)
        return ev

    def complete_pending(self, thread_id: int, seq_id: int, payload) -> bool:
        entry = self.pending.pop((thread_id, seq_id), None)
        if entry is None:
            return False
        ev, qp_index = entry
        self.thread(thread_id).dec_outstanding(qp_index)
        self.rpcs_completed += 1
        ev.succeed(payload)
        return True

    # -- stats -------------------------------------------------------------------------

    def mean_coalescing_degree(self) -> float:
        sent = sum(ch.tcq.messages_sent for ch in self.channels)
        reqs = sum(ch.tcq.requests_sent for ch in self.channels)
        return (reqs / sent) if sent else 1.0

    def congestion_stats(self, fabric) -> dict:
        """Per-channel DCQCN state for this handle's client-side QPs.

        FLock's credit window and the fabric's rate limiter interact:
        credits bound *outstanding requests* per QP while DCQCN bounds
        the QP's *send rate*, so a throttled channel holds credits
        longer and the coalescer naturally batches more per doorbell.
        Empty when the congestion model (or DCQCN) is off.
        """
        if not getattr(fabric, "dcqcn_active", False):
            return {}
        stats = {}
        for ch in self.channels:
            key = (self.client_node.name, ch.client_qp.qpn)
            state = fabric._dcqcn.get(key)
            if state is None:
                continue
            snap = state.snapshot()
            snap["credits_outstanding"] = ch.credits.credits
            stats["qp%d" % ch.index] = snap
        return stats
