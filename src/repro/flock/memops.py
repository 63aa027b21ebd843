"""FLock memory and atomic operations (paper §6, Table 2 memory APIs).

``fl_read`` / ``fl_write`` / ``fl_fetch_and_add`` / ``fl_cmp_and_swap``
ride the same connection handle and FLock synchronization as RPC: a
thread prepares its work request, enqueues it in the QP's combining
queue, and the transient leader links all queued work requests and rings
a *single* doorbell for the batch.  Because one-sided operations have no
response message, completion is signalled through the verbs completion
(annotated by ``wr_id``) rather than the response dispatcher — the
complexity the paper hides under the programming interface.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim import Event
from ..verbs import Completion, Verb
from .handle import ConnectionHandle, MemOp
from .tcq import PendingSend

__all__ = ["MemoryOps"]


class MemoryOps:
    """Memory-verb front end bound to a :class:`FlockClient`."""

    def __init__(self, client):
        self.client = client

    # -- public API (Table 2) -------------------------------------------------

    def read(self, handle: ConnectionHandle, thread_id: int, remote_addr: int,
             rkey: int, size: int) -> Generator[Event, None, Completion]:
        """``fl_read``: read ``size`` bytes from remote memory."""
        return (yield from self._submit(handle, thread_id, MemOp(
            thread_id=thread_id, verb=Verb.READ, size=size,
            remote_addr=remote_addr, rkey=rkey,
        )))

    def write(self, handle: ConnectionHandle, thread_id: int, remote_addr: int,
              rkey: int, size: int, payload: Any = None
              ) -> Generator[Event, None, Completion]:
        """``fl_write``: write ``size`` bytes to remote memory."""
        return (yield from self._submit(handle, thread_id, MemOp(
            thread_id=thread_id, verb=Verb.WRITE, size=size,
            remote_addr=remote_addr, rkey=rkey, payload=payload,
        )))

    def fetch_and_add(self, handle: ConnectionHandle, thread_id: int,
                      remote_addr: int, rkey: int, delta: int
                      ) -> Generator[Event, None, Completion]:
        """``fl_fetch_and_add``: atomic 8-byte fetch-and-add; the
        completion payload is the previous value."""
        return (yield from self._submit(handle, thread_id, MemOp(
            thread_id=thread_id, verb=Verb.FETCH_ADD, size=8,
            remote_addr=remote_addr, rkey=rkey, swap_or_add=delta,
        )))

    def cmp_and_swap(self, handle: ConnectionHandle, thread_id: int,
                     remote_addr: int, rkey: int, compare: int, swap: int
                     ) -> Generator[Event, None, Completion]:
        """``fl_cmp_and_swap``: atomic 8-byte compare-and-swap; the
        completion payload is the previous value (swap succeeded iff it
        equals ``compare``)."""
        return (yield from self._submit(handle, thread_id, MemOp(
            thread_id=thread_id, verb=Verb.CMP_SWAP, size=8,
            remote_addr=remote_addr, rkey=rkey, compare=compare,
            swap_or_add=swap,
        )))

    # -- internals ----------------------------------------------------------------

    def _submit(self, handle: ConnectionHandle, thread_id: int,
                op: MemOp) -> Generator[Event, None, Completion]:
        client = self.client
        op.created_ns = client.sim.now
        state = handle.thread(thread_id)
        yield state.submit_lock.acquire()
        try:
            channel = handle.qp_for_thread(thread_id)
            yield from client._drain_for_migration(state, channel)
            channel = handle.qp_for_thread(thread_id)
            state.stats.record(op.size)
            # Preparing the work request on the application thread (§6:
            # "each application thread prepares its work individually").
            yield client.sim.sleep(client.cpu.marshal_ns)
            slot = PendingSend(op, client.sim.now)
            slot.response_event = Event(client.sim)
            if channel.tcq.enqueue(slot):
                slot.sent_event = sent = Event(client.sim)
                client.start_tenure(handle, channel)
                yield sent
        finally:
            state.submit_lock.release()
        completion = yield slot.response_event
        return completion
