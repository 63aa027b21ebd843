"""Work requests and completions (the libibverbs data model).

A :class:`WorkRequest` is what software posts to a QP's send queue; a
:class:`Completion` is what the RNIC DMAs into a completion queue when a
*signaled* request finishes (§7: selective signaling suppresses CQEs for
up to N-1 of every N requests, saving PCIe bandwidth).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from .transport import Verb

__all__ = ["WorkRequest", "Completion", "WcStatus"]

_wr_ids = itertools.count(1)


@dataclass
class WorkRequest:
    """One verb submission.

    ``wr_id`` is the opaque application tag the paper uses (§6) to route
    completions of RPC vs. memory operations sharing a QP back to the
    right thread.
    """

    verb: Verb
    length: int = 0
    wr_id: int = field(default_factory=lambda: next(_wr_ids))
    signaled: bool = True
    #: One-sided ops: destination address and region key.
    remote_addr: int = 0
    rkey: int = 0
    #: Opaque payload object carried to the peer (messages/writes).
    payload: Any = None
    #: write-with-imm: 32-bit immediate delivered to the remote RCQ.
    imm: Optional[int] = None
    #: Atomics: operand values.
    compare: int = 0
    swap_or_add: int = 0
    #: Optional :class:`repro.obs.span.Span` carried through the NIC/fabric so
    #: hardware layers attribute their time to this request's trace.  Set
    #: by upper layers (FLock message posting) or auto-created by
    #: :meth:`QueuePair.post_send` when span tracing is enabled.
    span: Any = None

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative WR length")


class WcStatus:
    """Completion status codes (the subset the simulation produces)."""

    SUCCESS = "success"
    LOC_PROT_ERR = "local_protection_error"
    REM_ACCESS_ERR = "remote_access_error"
    RETRY_EXC_ERR = "retry_exceeded"


@dataclass
class Completion:
    """A completion-queue entry."""

    wr_id: int
    verb: Verb
    status: str = WcStatus.SUCCESS
    byte_len: int = 0
    #: recv completions: the sender's payload; read/atomic: returned data.
    payload: Any = None
    imm: Optional[int] = None
    #: QP number the completion belongs to (multiplexed CQs).
    qpn: int = 0
    #: UD recv: source (node name, qpn) for replies.
    src: Any = None
    #: Span of the work this completion finishes (for ``cq_poll`` wait
    #: edges: time the CQE sat in the CQ before software reaped it).
    span: Any = None

    @property
    def ok(self) -> bool:
        return self.status == WcStatus.SUCCESS
