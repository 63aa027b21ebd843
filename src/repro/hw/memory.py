"""Host memory regions and registration.

RDMA requires memory to be *registered* with the NIC before remote access:
registration pins pages and installs translation (MTT) and protection
(MPT) entries.  We track regions per node so that

* one-sided verbs can validate [addr, addr+len) falls inside a registered
  region with the right permissions, and
* the RNIC model can charge MTT-cache misses per region touched.

Payloads themselves are not byte-accurate; a region stores an optional
``dict`` backing so tests can verify data actually "moves" end to end.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MemoryRegion", "HostMemory", "AccessError"]


class AccessError(Exception):
    """Out-of-bounds or permission-violating remote access."""


class MemoryRegion:
    """A registered, remotely accessible slab of host memory."""

    _next_key = 1

    def __init__(self, addr: int, length: int, *, remote_write: bool = True,
                 remote_read: bool = True, remote_atomic: bool = True):
        if length <= 0:
            raise ValueError("region length must be positive")
        self.addr = addr
        self.length = length
        self.remote_write = remote_write
        self.remote_read = remote_read
        self.remote_atomic = remote_atomic
        self.rkey = MemoryRegion._next_key
        MemoryRegion._next_key += 1
        #: 8-byte-granularity backing store for atomics and data checks.
        self.words: Dict[int, int] = {}
        #: Optional delivery hook: RDMA writes landing in this region call
        #: ``sink(payload, addr, length)`` — how ring buffers receive
        #: messages without a receive queue.
        self.sink = None

    @property
    def end(self) -> int:
        return self.addr + self.length

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end

    def check(self, addr: int, length: int, op: str) -> None:
        """Raise :class:`AccessError` unless the access is permitted."""
        if not self.contains(addr, length):
            raise AccessError(
                "access [%d, %d) outside region [%d, %d)"
                % (addr, addr + length, self.addr, self.end)
            )
        if op == "write" and not self.remote_write:
            raise AccessError("region %d not remote-writable" % self.rkey)
        if op == "read" and not self.remote_read:
            raise AccessError("region %d not remote-readable" % self.rkey)
        if op == "atomic" and not self.remote_atomic:
            raise AccessError("region %d does not allow remote atomics" % self.rkey)

    def read_word(self, addr: int) -> int:
        self.check(addr, 8, "read")
        return self.words.get(addr, 0)


class HostMemory:
    """All registered regions of one node, with a simple bump allocator."""

    def __init__(self):
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_addr = 0x1000_0000

    def register(self, length: int, **perms) -> MemoryRegion:
        """Register a fresh region of ``length`` bytes."""
        region = MemoryRegion(self._next_addr, length, **perms)
        # Keep regions page-aligned and disjoint.
        self._next_addr += (length + 4095) // 4096 * 4096
        self._regions[region.rkey] = region
        return region

    def lookup(self, rkey: int) -> MemoryRegion:
        try:
            return self._regions[rkey]
        except KeyError:
            raise AccessError("unknown rkey %d" % rkey) from None

    def __len__(self) -> int:
        return len(self._regions)
