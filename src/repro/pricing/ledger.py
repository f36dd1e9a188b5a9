"""Billing ledger: the broker's transaction log and revenue accounting.

The marketplace (Section II-A) charges each consumer ``π(α, δ)`` per
answered query.  :class:`BillingLedger` records every sale immutably so the
broker can audit revenue per consumer, per dataset, and over time, and so
the arbitrage benches can total an adversary's actual spending.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Protocol, Sequence, Tuple

from repro.errors import LedgerError

__all__ = ["Transaction", "BillingLedger", "TradeRecord"]


class TradeRecord(Protocol):
    """Structural view of a journaled trade (``repro.durability`` entry).

    Declared locally so the strictly-typed pricing layer never imports the
    durability package: any object exposing these attributes — in practice
    :class:`repro.durability.journal.JournalEntry` — can be replayed.
    """

    @property
    def answer_id(self) -> int: ...

    @property
    def kind(self) -> str: ...

    @property
    def consumer(self) -> str: ...

    @property
    def dataset(self) -> str: ...

    @property
    def alpha(self) -> float: ...

    @property
    def delta(self) -> float: ...

    @property
    def price(self) -> float: ...

    @property
    def epsilon_prime(self) -> float: ...

    @property
    def label(self) -> str: ...


@dataclass(frozen=True, slots=True)
class Transaction:
    """One completed sale of an ``(α, δ)`` product."""

    transaction_id: int
    consumer: str
    dataset: str
    alpha: float
    delta: float
    price: float
    epsilon_prime: float

    def __post_init__(self) -> None:
        if self.price < 0:
            raise LedgerError("price must be non-negative")
        if self.epsilon_prime < 0:
            raise LedgerError("epsilon_prime must be non-negative")


@dataclass
class BillingLedger:
    """Append-only transaction log with aggregate views.

    Aggregates (total revenue, per-consumer and per-dataset totals) are
    maintained incrementally on every append, so the serving layer's
    admission checks stay O(1) regardless of ledger length.
    """

    _transactions: List[Transaction] = field(default_factory=list)
    _ids: "itertools.count[int]" = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self) -> None:
        self._total_revenue: float = 0.0
        self._revenue_by_consumer: Dict[str, float] = {}
        self._revenue_by_dataset: Dict[str, float] = {}
        # Highest journal answer_id already folded into this ledger; the
        # idempotency floor for replay_journal (0 = nothing replayed yet).
        self._journal_high_water: int = 0
        for txn in self._transactions:
            self._index(txn)

    def _index(self, txn: Transaction) -> None:
        """Fold one appended transaction into the running aggregates."""
        self._total_revenue += txn.price
        self._revenue_by_consumer[txn.consumer] = (
            self._revenue_by_consumer.get(txn.consumer, 0.0) + txn.price
        )
        self._revenue_by_dataset[txn.dataset] = (
            self._revenue_by_dataset.get(txn.dataset, 0.0) + txn.price
        )

    def _append(self, txn: Transaction) -> None:
        """The single write path: append and index (used by loaders too)."""
        self._transactions.append(txn)
        self._index(txn)

    def record(
        self,
        consumer: str,
        dataset: str,
        alpha: float,
        delta: float,
        price: float,
        epsilon_prime: float,
    ) -> Transaction:
        """Append a sale and return the immutable transaction record."""
        txn = Transaction(
            transaction_id=next(self._ids),
            consumer=consumer,
            dataset=dataset,
            alpha=alpha,
            delta=delta,
            price=price,
            epsilon_prime=epsilon_prime,
        )
        self._append(txn)
        return txn

    def record_many(
        self, sales: "Sequence[Mapping[str, Any]]"
    ) -> "List[Transaction]":
        """Append one transaction per entry of ``sales``, in order.

        Each entry supplies the keyword arguments of :meth:`record`
        (``consumer``, ``dataset``, ``alpha``, ``delta``, ``price``,
        ``epsilon_prime``).  Ids are assigned sequentially, so the ledger
        ends up identical to recording each sale individually -- this is
        the broker's bulk path for batched answers.
        """
        txns = [
            Transaction(transaction_id=next(self._ids), **dict(sale))
            for sale in sales
        ]
        for txn in txns:
            self._append(txn)
        return txns

    def __len__(self) -> int:
        return len(self._transactions)

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """Immutable view of every recorded sale, oldest first."""
        return tuple(self._transactions)

    def total_revenue(self) -> float:
        """Sum of all sale prices (maintained incrementally, O(1))."""
        return self._total_revenue

    def revenue_by_consumer(self) -> Dict[str, float]:
        """Total spend per consumer name."""
        return dict(self._revenue_by_consumer)

    def revenue_by_dataset(self) -> Dict[str, float]:
        """Total revenue per dataset key."""
        return dict(self._revenue_by_dataset)

    def spend_of(self, consumer: str) -> float:
        """Total spend of one consumer (O(1); the admission hot path)."""
        return self._revenue_by_consumer.get(consumer, 0.0)

    def purchases_of(self, consumer: str) -> Tuple[Transaction, ...]:
        """All transactions of one consumer, oldest first."""
        return tuple(t for t in self._transactions if t.consumer == consumer)

    # ------------------------------------------------------------------ #
    # Durability: snapshot / restore / journal replay                    #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the full ledger state.

        Captures the transaction log, the *next* transaction id, and the
        journal high-water mark, so :meth:`restore` followed by
        :meth:`replay_journal` of the journal suffix reproduces the live
        ledger bit for bit — including transaction ids.
        """
        return {
            "transactions": [
                {
                    "transaction_id": t.transaction_id,
                    "consumer": t.consumer,
                    "dataset": t.dataset,
                    "alpha": t.alpha,
                    "delta": t.delta,
                    "price": t.price,
                    "epsilon_prime": t.epsilon_prime,
                }
                for t in self._transactions
            ],
            # The id counter only advances by appending, so the next id is
            # always one past the newest transaction.
            "next_transaction_id": (
                self._transactions[-1].transaction_id + 1
                if self._transactions
                else 1
            ),
            "journal_high_water": self._journal_high_water,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace this ledger's state with a :meth:`snapshot` copy."""
        transactions = [
            Transaction(**dict(payload)) for payload in snapshot["transactions"]
        ]
        next_id = int(snapshot["next_transaction_id"])
        self._transactions = list(transactions)
        self._ids = itertools.count(next_id)
        self._total_revenue = 0.0
        self._revenue_by_consumer = {}
        self._revenue_by_dataset = {}
        self._journal_high_water = int(snapshot["journal_high_water"])
        for txn in self._transactions:
            self._index(txn)

    def replay_journal(self, entries: "Iterable[TradeRecord]") -> int:
        """Re-apply journaled trades this ledger has not yet seen.

        Entries at or below the journal high-water mark are skipped, so
        replaying the same journal twice — or replaying a full journal on
        top of a snapshot that already contains its prefix — records each
        sale exactly once (the *never double-charges* half of recovery).
        Transactions are recorded through the normal write path, so the
        rebuilt ledger's transaction ids match the uninterrupted run's.
        Returns the number of entries applied.
        """
        applied = 0
        previous = 0
        for entry in entries:
            if entry.answer_id <= previous:
                raise LedgerError(
                    f"journal replay out of order: answer_id "
                    f"{entry.answer_id} after {previous}"
                )
            previous = entry.answer_id
            if entry.answer_id <= self._journal_high_water:
                continue
            self.record(
                consumer=entry.consumer,
                dataset=entry.dataset,
                alpha=entry.alpha,
                delta=entry.delta,
                price=entry.price,
                epsilon_prime=entry.epsilon_prime,
            )
            self._journal_high_water = entry.answer_id
            applied += 1
        return applied
