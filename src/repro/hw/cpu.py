"""CPU cost accounting.

We do not simulate an OS scheduler: each simulated software thread is a
DES process, and a *core* is the implicit serial execution of one such
process.  What we do track is how much virtual time each core spends on
network-stack work versus application work, because the paper's central
CPU claim (§2.2, §8.3.1) is that UD burns most of its cycles inside the
userspace network libraries while FLock's coalescing frees them.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Event, Simulator

__all__ = ["CoreMeter", "CpuMeter"]


class CoreMeter:
    """Busy-time meter for one core, split by charge category."""

    def __init__(self, sim: Simulator, name: str = "core"):
        self.sim = sim
        self.name = name
        self.busy_ns: Dict[str, float] = {}
        self._started_at = sim.now

    def charge(self, ns: float, category: str = "app") -> Event:
        """Consume ``ns`` of this core; returns the sleep to yield on at
        once (see :meth:`Simulator.sleep`)."""
        if ns < 0:
            raise ValueError("negative CPU charge")
        self.busy_ns[category] = self.busy_ns.get(category, 0.0) + ns
        return self.sim.sleep(ns)

    @property
    def total_busy_ns(self) -> float:
        return sum(self.busy_ns.values())

    def utilization(self) -> float:
        elapsed = self.sim.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy_ns / elapsed)


class CpuMeter:
    """Aggregates the cores of one node."""

    def __init__(self, sim: Simulator, cores: int, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self.cores = [CoreMeter(sim, "%s.core%d" % (name, i)) for i in range(cores)]

    def __getitem__(self, idx: int) -> CoreMeter:
        return self.cores[idx]

    def __len__(self) -> int:
        return len(self.cores)

    def utilization(self) -> float:
        if not self.cores:
            return 0.0
        return sum(core.utilization() for core in self.cores) / len(self.cores)

    def network_fraction(self) -> float:
        """Share of busy cycles spent in network-stack categories."""
        total = sum(core.total_busy_ns for core in self.cores)
        if total <= 0:
            return 0.0
        net = sum(
            ns
            for core in self.cores
            for cat, ns in core.busy_ns.items()
            if cat.startswith("net")
        )
        return net / total
