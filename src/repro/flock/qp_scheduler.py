"""Receiver-side QP scheduling logic (paper §5.1).

The server bounds the set of *active* QPs at ``MAX_AQP`` to keep the RNIC
connection cache warm, and divides that budget across senders by their
recent utilization:

    U_{i,j}  = sum of coalescing degrees reported in credit-renew
               requests on QP j of sender i since the last redistribution
    U_i      = sum over j of U_{i,j}
    AQP_i    = MAX_AQP * U_i / sum_k U_k     (if U_i > 0; else 1)

Dormant senders (no traffic in an interval) keep exactly one QP; a newly
joined sender gets the average allocation of functioning senders.  This
module holds the pure allocation math; the DES scheduler process that
applies it lives in :mod:`repro.flock.rpc`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

__all__ = ["HoldLedger", "UtilizationTable", "compute_allocation"]


class UtilizationTable:
    """U_{i,j} accumulator between redistribution rounds."""

    def __init__(self):
        self._table: Dict[int, Dict[int, float]] = {}

    def report(self, client_id: int, qp_index: int, median_degree: int) -> None:
        """Record a credit-renew report (one per renewal request)."""
        if median_degree < 1:
            raise ValueError("coalescing degree is >= 1 by definition")
        per_qp = self._table.setdefault(client_id, {})
        per_qp[qp_index] = per_qp.get(qp_index, 0.0) + median_degree

    def ensure_client(self, client_id: int) -> None:
        self._table.setdefault(client_id, {})

    def per_client(self) -> Dict[int, float]:
        """U_i for every known sender (0.0 when dormant)."""
        return {cid: sum(per_qp.values()) for cid, per_qp in self._table.items()}

    def qp_utilization(self, client_id: int) -> Dict[int, float]:
        return dict(self._table.get(client_id, {}))

    def reset(self) -> None:
        for per_qp in self._table.values():
            per_qp.clear()


class HoldLedger:
    """Deactivation windows per QP — how long the scheduler held it.

    When a redistribution (or a declined renewal) deactivates a QP,
    requests already queued behind it are *held by the scheduler* until
    the QP is re-activated or the requests migrate.  The ledger records
    those windows so (a) the time shows up as ``qp_hold`` waits on
    the affected RPC spans, and (b) total scheduler-induced hold time is
    visible as a run statistic independent of tracing.
    """

    def __init__(self):
        self._since: Dict[Hashable, float] = {}
        self.holds = 0
        self.total_hold_ns = 0.0

    def hold(self, key: Hashable, now: float) -> None:
        """Mark ``key`` (a QP identity) deactivated at ``now``; keeps the
        original timestamp if the QP was already held."""
        self._since.setdefault(key, now)

    def held_since(self, key: Hashable) -> Optional[float]:
        """Start of the current hold window, or None if not held."""
        return self._since.get(key)

    def release(self, key: Hashable, now: float) -> float:
        """End the hold window; returns its length (0.0 if not held)."""
        t0 = self._since.pop(key, None)
        if t0 is None:
            return 0.0
        self.holds += 1
        held = now - t0
        self.total_hold_ns += held
        return held

    @property
    def active_holds(self) -> int:
        return len(self._since)


def compute_allocation(
    per_client_u: Mapping[int, float],
    max_aqp: int,
    qps_per_client: Mapping[int, int],
) -> Dict[int, int]:
    """Split the MAX_AQP budget across senders (paper's AQP_i formula).

    ``qps_per_client`` caps each sender at the QPs it actually owns.
    Every sender — functioning or dormant — keeps at least one QP for
    future communication.
    """
    if max_aqp < 1:
        raise ValueError("max_aqp must be >= 1")
    total_u = sum(u for u in per_client_u.values() if u > 0)
    alloc: Dict[int, int] = {}
    for cid, u in per_client_u.items():
        cap = max(1, qps_per_client.get(cid, 1))
        if total_u <= 0 or u <= 0:
            alloc[cid] = 1 if cap >= 1 else cap
        else:
            share = int(max_aqp * (u / total_u))
            alloc[cid] = max(1, min(cap, share))
    return alloc
