"""Packetization helpers.

The simulator moves whole messages, but wire costs are charged per MTU
packet; and UD (4 KB MTU, Table 1) forces applications to split larger
payloads into chunks that may arrive out of order and need reassembly.
"""

from __future__ import annotations

from typing import List

__all__ = ["segment", "Reassembler"]


def segment(nbytes: int, mtu: int) -> List[int]:
    """Split a payload into MTU-sized chunk lengths (last may be short)."""
    if nbytes < 0:
        raise ValueError("negative payload size")
    if mtu <= 0:
        raise ValueError("mtu must be positive")
    if nbytes == 0:
        return [0]
    full, rem = divmod(nbytes, mtu)
    chunks = [mtu] * full
    if rem:
        chunks.append(rem)
    return chunks


class Reassembler:
    """Reassembles out-of-order UD chunks into complete messages.

    Each message carries ``(msg_id, chunk_idx, n_chunks)``; the
    reassembler buffers chunks until a message is complete, then releases
    it.  This is exactly the application-side burden the paper notes UD
    imposes (Table 1 caption).  Under loss a message may never complete;
    :attr:`pending` and :attr:`pending_bytes` show what stays buffered.
    """

    def __init__(self):
        #: msg_id -> {chunk_idx: payload}.
        self._partial = {}
        #: msg_id -> payload bytes buffered.
        self._buffered = {}
        self.completed = 0

    def add(self, msg_id: int, chunk_idx: int, n_chunks: int, payload=None,
            nbytes: int = 0):
        """Feed one chunk; returns the full chunk list if complete.

        ``nbytes`` feeds the leak accounting (buffered payload bytes);
        callers that do not track it can omit it.
        """
        if n_chunks <= 0 or not 0 <= chunk_idx < n_chunks:
            raise ValueError("bad chunk coordinates")
        if n_chunks == 1:
            self.completed += 1
            return [payload]
        chunks = self._partial.setdefault(msg_id, {})
        if chunk_idx in chunks:
            raise ValueError("duplicate chunk %d of message %d" % (chunk_idx, msg_id))
        chunks[chunk_idx] = payload
        self._buffered[msg_id] = self._buffered.get(msg_id, 0) + max(nbytes, 0)
        if len(chunks) == n_chunks:
            del self._partial[msg_id]
            del self._buffered[msg_id]
            self.completed += 1
            return [chunks[i] for i in range(n_chunks)]
        return None

    @property
    def pending(self) -> int:
        return len(self._partial)

    @property
    def pending_bytes(self) -> int:
        """Payload bytes buffered across all incomplete messages."""
        return sum(self._buffered.values())
