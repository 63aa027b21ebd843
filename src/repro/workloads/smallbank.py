"""Smallbank: write-intensive banking OLTP benchmark (paper §8.5.2).

The paper's setup: 100,000 accounts per server thread, "85% of
transactions updating keys", and a skew where "4% of the total accounts
are accessed by 90% of transactions".  We implement the six classic
Smallbank transaction types with a mix that yields exactly 85% writers:

=================  =====  ======================================
transaction         mix    footprint
=================  =====  ======================================
balance             15 %   read 2 (checking + savings)
deposit-checking    15 %   write 1
transact-savings    15 %   write 1
amalgamate          15 %   read 1 + write 2
write-check         25 %   read 1 + write 1
send-payment        15 %   write 2
=================  =====  ======================================
"""

from __future__ import annotations

from typing import Iterator

from ..apps.txn import Transaction
from ..sim import HotColdGenerator, RandomSource

__all__ = ["SmallbankWorkload", "ACCOUNTS_PER_THREAD"]

ACCOUNTS_PER_THREAD = 100_000
#: The paper's skew: 4% of the accounts take 90% of the accesses.
HOT_FRACTION = 0.04
HOT_ACCESS = 0.90


class SmallbankWorkload:
    """Transaction generator with the paper's Smallbank configuration."""

    __slots__ = ("n_accounts", "rng", "keygen", "_next_value")

    def __init__(self, n_accounts: int, rng: RandomSource):
        if n_accounts < 4:
            raise ValueError("need at least 4 accounts")
        self.n_accounts = n_accounts
        self.rng = rng
        self.keygen = HotColdGenerator(n_accounts, HOT_FRACTION, HOT_ACCESS,
                                       rng=rng)
        self._next_value = 0

    # Account rows: checking = 2*acct, savings = 2*acct + 1.
    def _checking(self, acct: int) -> int:
        return 2 * acct

    def _savings(self, acct: int) -> int:
        return 2 * acct + 1

    def _acct(self) -> int:
        return self.keygen.next()

    def _acct_pair(self):
        a = self._acct()
        b = self._acct()
        while b == a:
            b = self._acct()
        return a, b

    def _value(self) -> int:
        self._next_value += 1
        return self._next_value

    def next_txn(self) -> Transaction:
        r = self.rng.random()
        if r < 0.15:  # balance
            acct = self._acct()
            return Transaction(reads=[self._checking(acct),
                                      self._savings(acct)])
        if r < 0.30:  # deposit-checking
            return Transaction(writes=[(self._checking(self._acct()),
                                        self._value())])
        if r < 0.45:  # transact-savings
            return Transaction(writes=[(self._savings(self._acct()),
                                        self._value())])
        if r < 0.60:  # amalgamate: drain savings+checking of A into B
            a, b = self._acct_pair()
            return Transaction(reads=[self._savings(a)],
                               writes=[(self._checking(a), self._value()),
                                       (self._checking(b), self._value())])
        if r < 0.85:  # write-check
            acct = self._acct()
            return Transaction(reads=[self._savings(acct)],
                               writes=[(self._checking(acct), self._value())])
        # send-payment
        a, b = self._acct_pair()
        return Transaction(writes=[(self._checking(a), self._value()),
                                   (self._checking(b), self._value())])

    def __iter__(self) -> Iterator[Transaction]:
        while True:
            yield self.next_txn()
