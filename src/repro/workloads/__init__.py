"""Workload generators: TATP, Smallbank, synthetic RPC mixes."""

from .smallbank import ACCOUNTS_PER_THREAD, SmallbankWorkload
from .synthetic import BimodalSize
from .tatp import SUBSCRIBERS_PER_SERVER, TatpWorkload

__all__ = [
    "ACCOUNTS_PER_THREAD",
    "BimodalSize",
    "SUBSCRIBERS_PER_SERVER",
    "SmallbankWorkload",
    "TatpWorkload",
]
