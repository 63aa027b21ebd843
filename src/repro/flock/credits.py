"""Credit-based load control (paper §5.1).

A credit is the right to send one RPC request on a QP.  The server hands
each QP ``C`` (default 32) credits at bootstrap; after a sender burns
half, the leader requests ``C`` more via RDMA write-with-imm so the other
half covers the renewal latency.  Declining a renewal deactivates the QP
on both ends — that is how the receiver-side QP scheduler shrinks a
sender's active set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque
from collections import deque

from ..obs import faults
from ..sim import Event, Simulator

__all__ = ["CreditState", "RenewRequest", "CreditGrant"]


@dataclass
class RenewRequest:
    """Sent client→server by write-with-imm (§7): asks for C more credits
    and reports the median coalescing degree since the last request."""

    client_id: int
    qp_index: int
    median_degree: int


@dataclass
class CreditGrant:
    """Server→client: renewed credits (0 means declined → deactivate)."""

    qp_index: int
    credits: int


class CreditState:
    """Client-side credit accounting for one QP."""

    def __init__(self, sim: Simulator, batch: int, renew_threshold: int):
        if batch < 1:
            raise ValueError("credit batch must be >= 1")
        if not 0 < renew_threshold <= batch:
            raise ValueError("renew threshold must be in (0, batch]")
        self.sim = sim
        self.batch = batch
        self.renew_threshold = renew_threshold
        self.credits = batch
        self.renew_outstanding = False
        self.active = True
        self._waiters: Deque[Event] = deque()
        self.renewals_requested = 0
        self.grants_received = 0
        self.declines_received = 0
        #: Credit-conservation ledger for the end-of-run auditor:
        #: issued (bootstrap batch + every grant/reactivation top-up)
        #: must equal consumed + the credits still outstanding.
        self.issued_total = batch
        self.consumed_total = 0
        #: Blocked-on-credits accounting: completely-dry waits and the
        #: total virtual time spent in them (causal wait edges are cut
        #: per queued request by the leader, which knows the spans).
        self.dry_waits = 0
        self.wait_ns = 0.0
        #: Cached ``sim.instrumented``: the wait-time accounting closure
        #: is only allocated when someone (auditor/telemetry) can see it.
        self._obs = sim.instrumented
        sim.register_component(self)

    # -- consumption --------------------------------------------------------

    def try_consume(self, n: int = 1) -> bool:
        """Take ``n`` credits if available."""
        if self.credits >= n:
            self.credits -= n
            self.consumed_total += n
            return True
        return False

    def needs_renewal(self) -> bool:
        """True when the renew request should be fired (half burnt, none
        outstanding, QP still active)."""
        return (
            self.active
            and not self.renew_outstanding
            and self.credits <= self.renew_threshold
        )

    def mark_renewal_sent(self) -> None:
        self.renew_outstanding = True
        self.renewals_requested += 1

    def wait_for_credits(self) -> Event:
        """Event fired on the next grant (sender ran completely dry)."""
        ev = Event(self.sim)
        self._waiters.append(ev)
        self.dry_waits += 1
        if self._obs:
            t0 = self.sim.now

            def _note(_ev: Event) -> None:
                self.wait_ns += self.sim.now - t0

            ev.add_callback(_note)
        return ev

    # -- grant handling ------------------------------------------------------

    def on_grant(self, grant: CreditGrant) -> None:
        self.renew_outstanding = False
        if grant.credits <= 0:
            self.declines_received += 1
            self.active = False
        else:
            self.grants_received += 1
            self.issued_total += grant.credits
            if not (faults.ACTIVE and "credits.drop_refill" in faults.ACTIVE):
                self.credits += grant.credits
        self._wake()

    def reactivate(self, credits: int) -> None:
        """QP scheduler re-activated this QP with a fresh credit batch."""
        self.active = True
        if credits > self.credits:
            self.issued_total += credits - self.credits
            self.credits = credits
        self.renew_outstanding = False
        self._wake()

    def deactivate(self) -> None:
        self.active = False
        self._wake()

    def _wake(self) -> None:
        while self._waiters:
            self._waiters.popleft().succeed()
