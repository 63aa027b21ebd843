"""FLock synchronization: the thread combining queue (paper §4.2).

Threads sharing a QP coordinate through a per-QP TCQ modelled on the MCS
queue lock: a thread atomically appends itself; if it lands at the head
it becomes the **leader**, otherwise a **follower** whose request will be
coalesced by the current leader.  The leader hands buffers to concurrent
followers, waits for their copy-completion flags, builds one coalesced
message, issues a single RDMA write, and passes leadership to the first
follower whose request did not fit (bounded combining guarantees leader
progress).

In the simulator the atomic swap is the (deterministic) append below, and
"concurrent" is literal: whatever is queued when the leader collects its
batch.  Leadership is transient exactly as in the paper.
"""

from __future__ import annotations

from typing import List

from ..sim import percentile
from .message import META_BYTES, RpcRequest, coalesced_size

__all__ = ["CombiningQueue", "PendingSend"]


class PendingSend:
    """One thread's queued send: the slot a follower hands to the leader."""

    __slots__ = ("request", "copied", "sent_event", "response_event", "enqueued_ns")

    def __init__(self, request, enqueued_ns: float):
        self.request = request
        self.copied = False
        #: Set only on the slot whose enqueue made its thread leader:
        #: fired once the message carrying it posts, ending the tenure
        #: that blocks that thread.  Followers never wait, so they get
        #: none.
        self.sent_event = None
        #: Memory operations only: fired with the verbs completion.
        self.response_event = None
        self.enqueued_ns = enqueued_ns


class CombiningQueue:
    """Per-QP MCS-style combining queue with bounded batches."""

    def __init__(self, max_combine: int):
        if max_combine < 1:
            raise ValueError("max_combine must be >= 1")
        self.max_combine = max_combine
        #: Queued slots, oldest first.  A plain list: the leader takes
        #: a prefix at a time (see :meth:`collect`).
        self.pending: List[PendingSend] = []
        self.leader_active = False
        #: Coalescing degrees of messages sent since the last credit
        #: renewal (the leader reports the median; §5.1).
        self.degrees_since_report: List[int] = []
        self.messages_sent = 0
        self.requests_sent = 0

    # -- enqueue protocol ---------------------------------------------------

    def enqueue(self, slot: PendingSend) -> bool:
        """Atomic-swap append.  Returns True iff the caller is now leader
        (the TCQ tail was null, MCS-style)."""
        self.pending.append(slot)
        if not self.leader_active:
            self.leader_active = True
            return True
        return False

    # -- leader protocol -------------------------------------------------------

    def collect(self, limit: int, credits: int,
                byte_budget: int) -> List[PendingSend]:
        """Leader: take the longest queue prefix that fits one message.

        At most ``limit`` slots; RPC requests (memory operations carry no
        ring entry) stop the batch at ``credits`` of them, or when the
        coalesced message would outgrow ``byte_budget`` — though a lone
        request always goes.  Every taken slot is marked copied."""
        pending = self.pending
        n_rpc = 0
        wire = coalesced_size([])
        k = 0
        end = min(limit, len(pending))
        while k < end:
            nxt = pending[k]
            if isinstance(nxt.request, RpcRequest):
                if n_rpc >= credits:
                    break
                entry_bytes = META_BYTES + nxt.request.size
                if n_rpc > 0 and wire + entry_bytes > byte_budget:
                    break  # coalesced message would outgrow the ring
                wire += entry_bytes
                n_rpc += 1
            k += 1
        batch = pending[:k]
        del pending[:k]
        for slot in batch:
            slot.copied = True
        return batch

    def record_message(self, degree: int) -> None:
        self.degrees_since_report.append(degree)
        self.messages_sent += 1
        self.requests_sent += degree

    def handoff(self) -> bool:
        """Leader finished a cycle.  True if leadership passes to the next
        queued thread (another cycle must run); False if the TCQ drained."""
        if self.pending:
            return True
        self.leader_active = False
        return False

    # -- metrics -------------------------------------------------------------

    def median_degree(self) -> int:
        """Median coalescing degree since the last report (>= 1), which the
        leader piggybacks on credit renewals as the QP contention metric."""
        if not self.degrees_since_report:
            return 1
        value = percentile(sorted(self.degrees_since_report), 50.0)
        self.degrees_since_report = []
        return max(1, int(round(value)))
