"""The marketplace: wallets, purchases, and trade settlement.

The broker prices and answers; the marketplace adds the money flow of the
system model's trading loop -- consumers hold :class:`Wallet` balances,
purchases debit them atomically (a failed answer never charges), and the
market keeps a settlement history that examples and benches can audit
alongside the broker's billing ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.broker import DataBroker
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.errors import LedgerError

__all__ = ["Wallet", "Settlement", "Marketplace"]


@dataclass
class Wallet:
    """A consumer's spendable balance."""

    owner: str
    balance: float = 0.0

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise LedgerError("initial balance must be non-negative")

    def deposit(self, amount: float) -> float:
        """Add funds; returns the new balance."""
        if amount < 0:
            raise LedgerError("deposit amount must be non-negative")
        self.balance += amount
        return self.balance

    def withdraw(self, amount: float) -> float:
        """Remove funds; raises :class:`LedgerError` on insufficient balance."""
        if amount < 0:
            raise LedgerError("withdrawal amount must be non-negative")
        if amount > self.balance + 1e-12:
            raise LedgerError(
                f"wallet {self.owner!r}: balance {self.balance:.6g} cannot "
                f"cover {amount:.6g}"
            )
        self.balance -= amount
        return self.balance


@dataclass(frozen=True)
class Settlement:
    """One settled trade: who paid what for which product."""

    consumer: str
    query: RangeQuery
    spec: AccuracySpec
    price: float
    epsilon_prime: float


@dataclass
class Marketplace:
    """Funds-checked front door to a :class:`DataBroker`.

    Parameters
    ----------
    broker:
        The answering broker (owns pricing, privacy, and billing).
    """

    broker: DataBroker
    wallets: Dict[str, Wallet] = field(default_factory=dict)
    settlements: List[Settlement] = field(default_factory=list)

    def open_account(self, consumer: str, funds: float) -> Wallet:
        """Create a wallet with initial ``funds`` for ``consumer``."""
        if consumer in self.wallets:
            raise LedgerError(f"consumer {consumer!r} already has an account")
        wallet = Wallet(owner=consumer, balance=funds)
        self.wallets[consumer] = wallet
        return wallet

    def balance_of(self, consumer: str) -> float:
        """Current balance of one consumer."""
        return self._wallet(consumer).balance

    def _wallet(self, consumer: str) -> Wallet:
        try:
            return self.wallets[consumer]
        except KeyError:
            raise LedgerError(f"consumer {consumer!r} has no account") from None

    def quote(self, spec: AccuracySpec) -> float:
        """List price for an ``(α, δ)`` product."""
        return self.broker.quote(spec)

    def buy(
        self, consumer: str, query: RangeQuery, spec: AccuracySpec
    ) -> PrivateAnswer:
        """Settle one purchase atomically.

        The wallet is checked before the broker runs and debited only after
        the answer is produced, so a failed answer never costs money.
        """
        wallet = self._wallet(consumer)
        price = self.broker.quote(spec)
        if price > wallet.balance + 1e-12:
            raise LedgerError(
                f"consumer {consumer!r}: balance {wallet.balance:.6g} cannot "
                f"cover quoted price {price:.6g}"
            )
        answer = self.broker.answer(query, spec, consumer=consumer)
        self.settle_answer(consumer, answer)
        return answer

    def settle_answer(self, consumer: str, answer: PrivateAnswer) -> Settlement:
        """Debit the consumer's wallet for an already-produced answer.

        The settlement path shared by :meth:`buy`, :meth:`buy_many`, and
        the serving gateway (which produces answers through the broker
        and settles wallets afterwards).  Raises
        :class:`~repro.errors.LedgerError` when the wallet cannot cover
        the billed price -- callers that need the funds check *before*
        the broker runs should quote and verify up front, as
        :meth:`buy` does.
        """
        wallet = self._wallet(consumer)
        wallet.withdraw(answer.price)
        settlement = Settlement(
            consumer=consumer,
            query=answer.query,
            spec=answer.spec,
            price=answer.price,
            epsilon_prime=answer.epsilon_prime,
        )
        self.settlements.append(settlement)
        return settlement

    def buy_many(
        self,
        consumer: str,
        queries: List[RangeQuery],
        spec: AccuracySpec,
    ) -> List[PrivateAnswer]:
        """Settle a whole batch atomically through the vectorized path.

        The wallet must cover the *sum* of the quoted prices before the
        broker runs; the batch then goes through
        :meth:`~repro.core.broker.DataBroker.answer_batch` (one plan per
        tier, one estimation pass, one noise draw) and every answer is
        settled individually so audits see one settlement per query.
        """
        if not queries:
            raise LedgerError("at least one query is required")
        wallet = self._wallet(consumer)
        price = self.broker.quote(spec)
        total = price * len(queries)
        if total > wallet.balance + 1e-12:
            raise LedgerError(
                f"consumer {consumer!r}: balance {wallet.balance:.6g} cannot "
                f"cover quoted batch price {total:.6g}"
            )
        answers = self.broker.answer_batch(queries, spec, consumer=consumer)
        for answer in answers:
            self.settle_answer(consumer, answer)
        return answers

    @property
    def total_settled(self) -> float:
        """Total money moved through the market."""
        return sum(s.price for s in self.settlements)

    def spend_of(self, consumer: str) -> float:
        """Total settled spend of one consumer."""
        return sum(s.price for s in self.settlements if s.consumer == consumer)
