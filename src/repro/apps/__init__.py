"""Applications the paper evaluates FLock with: a MICA-like KV store,
FLockTX distributed transactions, and a HydraList-like ordered index."""

from .hydralist import HydraList
from .kvstore import KvEntry, KvPartition, partition_of, replicas_of

__all__ = [
    "HydraList",
    "KvEntry",
    "KvPartition",
    "partition_of",
    "replicas_of",
]
