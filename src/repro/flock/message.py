"""FLock message layout (paper §4.1, Fig. 5).

A coalesced message carries a header (total length, request count,
expected canary), then one ``(metadata, data)`` pair per RPC request or
response, then the 64-bit canary trailer.  The receiver knows a message
arrived completely when the canary in the header matches the trailer,
relying on RDMA writes landing in increasing address order.

The simulator moves structured objects rather than bytes, but all *sizes*
are computed exactly so wire costs (and therefore the benefit of
coalescing: fewer headers, fewer canaries, fewer packets) are faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Any

__all__ = [
    "HEADER_BYTES",
    "META_BYTES",
    "CANARY_BYTES",
    "RpcRequest",
    "RpcResponse",
    "CoalescedMessage",
    "coalesced_overhead",
    "coalesced_size",
]

#: Header: total length (4) + request count (2) + flags (2) + expected
#: canary (8) + piggybacked ring Head (8).
HEADER_BYTES = 24
#: Per-entry metadata: data size (4) + thread id (4) + sequence id (4) +
#: RPC handler id (4).
META_BYTES = 16
#: 64-bit trailing canary.
CANARY_BYTES = 8


@dataclass
class RpcRequest:
    """One application RPC request inside a coalesced message."""

    thread_id: int
    seq_id: int
    rpc_id: int
    size: int
    payload: Any = None
    #: Virtual timestamp the requesting thread created the request
    #: (latency measurement anchor).
    created_ns: float = 0.0
    #: Optional :class:`repro.obs.Span` following this RPC through every
    #: layer (client queue → NIC → wire → server → response).
    span: Any = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative request size")


@dataclass
class RpcResponse:
    """One RPC response; tagged so the response dispatcher can route it
    back to the issuing thread (paper §4.3)."""

    thread_id: int
    seq_id: int
    rpc_id: int
    size: int
    payload: Any = None
    #: The originating request's span (response-leg phase attribution).
    span: Any = None
    #: Virtual time the server posted this response (set on flush).
    posted_ns: float = 0.0

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative response size")


@dataclass
class CoalescedMessage:
    """Header + N entries + canary, as one RDMA write."""

    entries: List[Any] = field(default_factory=list)
    #: Receiver ring Head piggybacked by the server on responses (§4.1),
    #: letting the sender refresh its cached copy without an RDMA read.
    piggyback_head: Optional[int] = None
    #: Credit grant piggybacked on a response (§5.1).
    piggyback_credits: int = 0
    #: Monotone message id per QP direction, for ring accounting.
    msg_id: int = 0
    #: Optional message-level :class:`repro.obs.Span` (doorbell → wire →
    #: remote ring); member RPC spans adopt its hardware phases.
    span: Any = None
    #: Virtual time the message landed in the receiver's ring.
    arrived_ns: float = 0.0
    #: Exact wire size, computed once: ``entries`` is fixed at
    #: construction.
    total_bytes: int = field(init=False, default=0)

    def __post_init__(self):
        self.total_bytes = coalesced_size(entry.size for entry in self.entries)

    @property
    def coalescing_degree(self) -> int:
        """Paper's QP-contention metric: requests per message (>= 1)."""
        return max(1, len(self.entries))


def coalesced_size(entry_sizes) -> int:
    """Exact wire size of a coalesced message with the given data sizes."""
    total = HEADER_BYTES + CANARY_BYTES
    for size in entry_sizes:
        if size < 0:
            raise ValueError("negative entry size")
        total += META_BYTES + size
    return total


def coalesced_overhead(n_entries: int) -> int:
    """Framing bytes of a coalesced message with ``n_entries`` requests.

    ``coalesced_size(sizes) == coalesced_overhead(len(sizes)) + sum(sizes)``
    by construction — the coalescing auditor leans on this identity to
    reconcile the bytes written into the request rings against the
    coalesced request/byte ledgers.
    """
    if n_entries < 0:
        raise ValueError("negative entry count")
    return HEADER_BYTES + CANARY_BYTES + META_BYTES * n_entries
