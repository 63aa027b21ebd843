"""TATP: read-intensive telecom OLTP benchmark (paper §8.5.2).

The paper's characterization: "70% single key reads, 10% multi-key
reads, with the rest of transactions updating keys" over one million
subscribers per server.  We generate exactly that mix:

* 70 % ``GET_SUBSCRIBER_DATA`` — read one subscriber row;
* 10 % ``GET_ACCESS_DATA``-style multi-key read — read 3 related rows;
*  4 % ``DELETE/INSERT_CALL_FORWARDING`` pair modeled as read+write;
* 16 % ``UPDATE_SUBSCRIBER/UPDATE_LOCATION`` — update one row.

Keys are uniform over the subscriber space (TATP's non-uniform sub-id
generation is a constant factor the paper does not rely on).
"""

from __future__ import annotations

from typing import Iterator

from ..apps.txn import Transaction
from ..sim import RandomSource

__all__ = ["TatpWorkload", "SUBSCRIBERS_PER_SERVER"]

SUBSCRIBERS_PER_SERVER = 1_000_000


class TatpWorkload:
    """Transaction generator with the paper's TATP mix."""

    #: Mix fractions (single-read, multi-read, read+write, write).
    P_SINGLE_READ = 0.70
    P_MULTI_READ = 0.10
    P_READ_WRITE = 0.04

    __slots__ = ("n_keys", "rng", "_next_value")

    def __init__(self, n_servers: int, rng: RandomSource,
                 subscribers_per_server: int = SUBSCRIBERS_PER_SERVER):
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.n_keys = n_servers * subscribers_per_server
        self.rng = rng
        self._next_value = 0

    def _key(self) -> int:
        return self.rng.randrange(self.n_keys)

    def _value(self) -> int:
        self._next_value += 1
        return self._next_value

    def next_txn(self) -> Transaction:
        r = self.rng.random()
        if r < self.P_SINGLE_READ:
            return Transaction(reads=[self._key()])
        if r < self.P_SINGLE_READ + self.P_MULTI_READ:
            keys = {self._key() for _ in range(3)}
            return Transaction(reads=sorted(keys))
        if r < self.P_SINGLE_READ + self.P_MULTI_READ + self.P_READ_WRITE:
            read_key = self._key()
            write_key = self._key()
            while write_key == read_key:
                write_key = self._key()
            return Transaction(reads=[read_key],
                               writes=[(write_key, self._value())])
        return Transaction(writes=[(self._key(), self._value())])

    def __iter__(self) -> Iterator[Transaction]:
        while True:
            yield self.next_txn()
