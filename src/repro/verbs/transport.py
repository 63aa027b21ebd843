"""Transport types and their capability matrix (paper Table 1).

============  =====  ======  =======  ==========  =========
transport      read  atomic   write   send/recv    MTU
============  =====  ======  =======  ==========  =========
RC             yes    yes     yes      yes         2 GB
UC             no     no      yes      yes         2 GB
UD             no     no      no       yes         4 KB
============  =====  ======  =======  ==========  =========

RC retransmits in hardware after packet loss; UC and UD leave loss (and,
for UD, reordering/reassembly) to the application.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

__all__ = ["Transport", "Verb", "supports", "max_message_size", "capability_table"]

RC_MAX_MSG = 2 * 1024 * 1024 * 1024
UD_MAX_MSG = 4096


class Transport(enum.Enum):
    """The three RDMA transport types of Table 1."""

    RC = "RC"
    UC = "UC"
    UD = "UD"

    @property
    def reliable(self) -> bool:
        return self is Transport.RC

    @property
    def connected(self) -> bool:
        """RC/UC need one-to-one QP connections; UD is one-to-many."""
        return self is not Transport.UD


class Verb(enum.Enum):
    """RDMA operations (message verbs + memory verbs)."""

    SEND = "send"
    RECV = "recv"
    WRITE = "write"
    WRITE_IMM = "write_imm"
    READ = "read"
    FETCH_ADD = "fetch_add"
    CMP_SWAP = "cmp_swap"


_CAPS: Dict[Transport, FrozenSet[Verb]] = {
    Transport.RC: frozenset(Verb),
    Transport.UC: frozenset({Verb.SEND, Verb.RECV, Verb.WRITE, Verb.WRITE_IMM}),
    Transport.UD: frozenset({Verb.SEND, Verb.RECV}),
}


def supports(transport: Transport, verb: Verb) -> bool:
    """True if ``transport`` implements ``verb`` (Table 1)."""
    return verb in _CAPS[transport]


def max_message_size(transport: Transport) -> int:
    """Largest single message the transport carries (Table 1 MTU column)."""
    return UD_MAX_MSG if transport is Transport.UD else RC_MAX_MSG


def capability_table() -> Dict[str, dict]:
    """Table 1 as data, used by the Table-1 benchmark and docs."""
    return {
        t.value: {
            "read": supports(t, Verb.READ),
            "atomic": supports(t, Verb.FETCH_ADD) and supports(t, Verb.CMP_SWAP),
            "write": supports(t, Verb.WRITE),
            "send_recv": supports(t, Verb.SEND) and supports(t, Verb.RECV),
            "max_msg": max_message_size(t),
            "reliable": t.reliable,
        }
        for t in Transport
    }
