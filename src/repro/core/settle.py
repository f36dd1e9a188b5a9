"""The settle path every broker shares (Section II-A, steps 4-5).

The data broker, the cluster and the streaming broker differ only in
where an estimate comes from.  What a trade does around it lives here,
once: batch intake, ε admission, trade records, booking (policy settle,
accountant charge, any extra books, ledger bill -- after the broker has
journaled the records itself) and the ε′ = 0 replay.

:class:`SettleMixin` adds no state: it reads the broker's ``dataset``,
``pricing``, ``ledger``, ``accountant``, ``policy``, ``journal``,
``telemetry`` and ``base_station``, and names telemetry and deadline
checkpoints under the broker's ``_prefix``.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, ClassVar, ContextManager
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.errors import PrivacyBudgetExceededError
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger, Transaction
from repro.privacy.budget import BudgetAccountant
from repro.resilience.deadline import check_deadline

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["SettleMixin", "Trade"]

#: One trade to record: ``(kind, query, spec, ε′, price, label)``.
Trade = Tuple[str, RangeQuery, AccuracySpec, float, float, str]

#: The journal-record fields a ledger sale carries.
_SALE_FIELDS = ("consumer", "dataset", "alpha", "delta", "price", "epsilon_prime")


class _Versioned(Protocol):
    @property
    def store_version(self) -> int: ...


class SettleMixin:
    """Quote, batch intake, ε admission, booking and replay for a broker."""

    #: Namespace of the broker's telemetry and deadline checkpoints.
    _prefix: ClassVar[str] = "broker"

    dataset: str
    pricing: PricingFunction
    ledger: BillingLedger
    accountant: BudgetAccountant
    policy: BrokerPolicy
    journal: "Optional[TradeJournal]"
    telemetry: "Optional[MetricsRegistry]"

    if TYPE_CHECKING:  # pragma: no cover - a field or a property per broker

        @property
        def base_station(self) -> _Versioned: ...

    def quote(self, spec: AccuracySpec) -> float:
        """List price of an ``(α, δ)`` product (no data is touched)."""
        return self.pricing.price(spec.alpha, spec.delta)

    def _timer(self, name: str) -> "ContextManager[Any]":
        """A stage timer into the attached telemetry, or a no-op."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.timer(name)

    def _emit(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.inc(name, amount)

    def _journal_trades(self, records: "List[Dict[str, Any]]") -> None:
        """Commit trades to the write-ahead journal, pre-release.

        Must run **before** :meth:`_book` and before any answer is
        returned (journal-before-release, RL006): a crash after the
        append can only make recovery *over*-count ε, never under-count
        it.  No-op when no journal is attached.
        """
        if self.journal is not None:
            self.journal.append_many(records)

    def _intake(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: str,
    ) -> "List[AccuracySpec]":
        """Admit a batch before any data is touched; one spec per query."""
        if not queries:
            raise ValueError("at least one query is required")
        # A request whose deadline already passed must not plan, estimate,
        # or bill; the scope is installed by the serving gateway.
        check_deadline(f"{self._prefix}.answer_batch")
        if isinstance(spec, AccuracySpec):
            specs = [spec] * len(queries)
        else:
            specs = list(spec)
            if len(specs) != len(queries):
                raise ValueError(
                    f"got {len(specs)} specs for {len(queries)} queries; "
                    "pass one spec per query or a single shared spec"
                )
        for query in queries:
            if query.dataset not in ("default", self.dataset):
                raise ValueError(
                    f"query targets dataset {query.dataset!r}, broker "
                    f"serves {self.dataset!r}"
                )
        self.policy.admit_batch(consumer, specs)
        return specs

    def _admit_epsilon(
        self, consumer: str, total_epsilon: float, releases: int
    ) -> None:
        """Atomic ε admission: the batch fits both caps, or nothing runs."""
        if not self.policy.can_release(consumer, total_epsilon):
            raise PolicyViolationError(
                f"consumer {consumer!r} would exceed the per-consumer "
                "privacy cap"
            )
        if not self.accountant.can_afford(self.dataset, total_epsilon):
            raise PrivacyBudgetExceededError(
                f"dataset {self.dataset!r}: batch of {releases} releases "
                f"(ε′={total_epsilon:.6g}) would exceed capacity "
                f"{self.accountant.capacity:.6g}"
            )

    def _trade_records(
        self, consumer: str, trades: "Iterable[Trade]", store_version: int
    ) -> "List[Dict[str, Any]]":
        """One journal record per trade, in order."""
        return [
            dict(
                kind=kind,
                consumer=consumer,
                dataset=self.dataset,
                low=query.low,
                high=query.high,
                alpha=spec.alpha,
                delta=spec.delta,
                epsilon_prime=epsilon_prime,
                price=price,
                store_version=store_version,
                label=label,
            )
            for kind, query, spec, epsilon_prime, price, label in trades
        ]

    def _book(
        self,
        consumer: str,
        records: "List[Dict[str, Any]]",
        extra_books: "Optional[Callable[[], None]]" = None,
    ) -> "List[Transaction]":
        """Settle, charge and bill trades the broker has just journaled.

        Only ``release`` records are charged (replays cost ε′ = 0);
        ``extra_books`` runs the broker's own books before the ledger.
        """
        epsilons: "List[float]" = []
        labels: "List[str]" = []
        for record in records:
            self.policy.settle(consumer, record["epsilon_prime"])
            if record["kind"] == "release":
                epsilons.append(record["epsilon_prime"])
                labels.append(record["label"])
        self.accountant.charge_many(self.dataset, epsilons, labels)
        if extra_books is not None:
            extra_books()
        return self.ledger.record_many([
            {key: record[key] for key in _SALE_FIELDS} for record in records
        ])

    def replay(self, cached: PrivateAnswer, consumer: str) -> PrivateAnswer:
        """Re-release a previously purchased answer to ``consumer``.

        Re-releasing a released value is post-processing: it costs **zero**
        privacy budget (nothing is charged to the accountant and the
        policy settles ε′ = 0) and it starves averaging attacks, since m
        identical answers average to themselves.  The sale is still billed
        at list price and recorded in the ledger with ``epsilon_prime=0``,
        so the books show every hand-over.  A replay whose request deadline
        has passed is refused before anything is journaled.
        """
        check_deadline(f"{self._prefix}.replay")
        spec, query = cached.spec, cached.query
        self.policy.admit(consumer, spec)
        price = self.pricing.price(spec.alpha, spec.delta)
        label = f"{consumer}:[{query.low},{query.high}]"
        records = self._trade_records(
            consumer,
            [("replay", query, spec, 0.0, price, label)],
            self.base_station.store_version,
        )
        self._journal_trades(records)
        [txn] = self._book(consumer, records)
        self._emit(f"{self._prefix}.replays")
        return dataclasses.replace(
            cached, consumer=consumer, price=price, transaction_id=txn.transaction_id
        )
