"""Synthetic RPC size mix for the microbenchmarks (§8.3).

* :class:`BimodalSize` — 90 % small / 10 % large, the head-of-line
  blocking workload of Fig. 11.
"""

from __future__ import annotations


__all__ = ["BimodalSize"]


class BimodalSize:
    """A fraction of *threads* send large payloads, the rest small ones.

    The paper's Fig. 11 workload: "10% of threads submit large RPC
    requests, while 90% of threads issue small RPC (64 bytes)" — the
    assignment is per-thread, which is what makes Algorithm 1's
    size-based grouping effective.
    """

    def __init__(self, n_threads: int, large_size: int,
                 small_size: int = 64, large_fraction: float = 0.10):
        if not 0 <= large_fraction <= 1:
            raise ValueError("large_fraction must be in [0, 1]")
        self.small_size = small_size
        self.large_size = large_size
        n_large = max(1, round(n_threads * large_fraction)) if n_threads else 0
        #: Deterministic: the first ceil(10%) thread ids are the large ones.
        self.large_threads = set(range(n_large))

    def next(self, thread_id: int) -> int:
        if thread_id in self.large_threads:
            return self.large_size
        return self.small_size
