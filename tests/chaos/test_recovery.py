"""Recovery semantics: snapshot/restore/replay and the crash window.

The contract under test (``repro.durability.recovery``):

* replay is idempotent — the same journal applied twice records each
  trade once;
* snapshot + suffix replay reaches the same books as a full replay from
  genesis, bit-identically;
* because brokers journal *before* they charge (RL006), a crash in the
  window between the two makes recovery over-count ε, never under-count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import books_equal
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.durability.recovery import (
    recover_accounting,
    snapshot_accounting,
)
from repro.errors import LedgerError
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from tests.chaos.conftest import DEVICES, RANGES, RECORDS, TIERS, journal_record


def build_service(seed: int = 11) -> PrivateRangeCountingService:
    values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICES, seed=seed
    )
    service.broker.journal = TradeJournal()
    return service


def run_trades(service: PrivateRangeCountingService, steps: range) -> list:
    """A deterministic mixed-tier workload over the shared test ranges."""
    answers = []
    for step in steps:
        low, high = RANGES[step % len(RANGES)]
        spec = TIERS[step % len(TIERS)]
        answers.append(
            service.answer(
                low, high, spec.alpha, spec.delta, consumer=f"c{step % 3}"
            )
        )
    return answers


class TestReplayIdempotence:
    def test_double_replay_applies_once(self):
        journal = TradeJournal()
        journal.append_many([journal_record(low=float(i)) for i in range(3)])
        ledger, accountant = BillingLedger(), BudgetAccountant()
        assert ledger.replay_journal(journal.entries()) == 3
        assert accountant.replay_journal(journal.entries()) == 3
        revenue, spent = ledger.total_revenue(), accountant.spent("default")
        assert ledger.replay_journal(journal.entries()) == 0
        assert accountant.replay_journal(journal.entries()) == 0
        assert ledger.total_revenue() == revenue
        assert accountant.spent("default") == spent
        assert len(ledger) == 3

    def test_replay_entries_bill_but_never_charge(self):
        journal = TradeJournal()
        journal.append(**journal_record(epsilon_prime=0.02, price=1.5))
        journal.append(
            **journal_record(kind="replay", epsilon_prime=0.0, price=1.5)
        )
        ledger, accountant = BillingLedger(), BudgetAccountant()
        ledger.replay_journal(journal.entries())
        applied = accountant.replay_journal(journal.entries())
        # Both trades are billed; only the release spends ε.
        assert len(ledger) == 2
        assert ledger.total_revenue() == pytest.approx(3.0)
        assert applied == 1
        assert accountant.spent("default") == pytest.approx(0.02)

    def test_out_of_order_replay_is_loud(self):
        journal = TradeJournal()
        journal.append_many([journal_record() for _ in range(2)])
        backwards = list(reversed(journal.entries()))
        with pytest.raises(LedgerError):
            BillingLedger().replay_journal(backwards)
        with pytest.raises(LedgerError):
            BudgetAccountant().replay_journal(backwards)

    def test_replay_never_enforces_capacity(self):
        journal = TradeJournal()
        journal.append_many(
            [journal_record(epsilon_prime=0.5) for _ in range(4)]
        )
        accountant = BudgetAccountant(capacity=1.0)
        # 2.0 > capacity, yet every journaled spend must land: the
        # releases already happened, so recovery records history.
        assert accountant.replay_journal(journal.entries()) == 4
        assert accountant.spent("default") == pytest.approx(2.0)


class TestSnapshotRestore:
    def test_snapshot_plus_suffix_equals_full_replay(self):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 6))
        snapshot = snapshot_accounting(
            broker.ledger, broker.accountant, broker.journal
        )
        run_trades(service, range(6, 12))

        from_genesis = recover_accounting(broker.journal)
        from_snapshot = recover_accounting(broker.journal, snapshot=snapshot)
        assert books_equal(*from_genesis, *from_snapshot)
        assert books_equal(*from_genesis, broker.ledger, broker.accountant)

    def test_full_replay_over_snapshot_stays_idempotent(self):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 5))
        snapshot = snapshot_accounting(
            broker.ledger, broker.accountant, broker.journal
        )
        run_trades(service, range(5, 9))

        ledger, accountant = BillingLedger(), BudgetAccountant()
        ledger.restore(snapshot.ledger)
        accountant.restore(snapshot.accountant)
        # Replaying the FULL journal (not just the suffix) must skip the
        # prefix already folded into the snapshot.
        assert ledger.replay_journal(broker.journal.entries()) == 4
        assert accountant.replay_journal(broker.journal.entries()) == 4
        assert books_equal(ledger, accountant, broker.ledger, broker.accountant)


class TestCrashWindow:
    def test_crash_between_journal_and_charge_overcounts(self, monkeypatch):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 3))
        live_spent = broker.accountant.spent(broker.dataset)
        live_txns = len(broker.ledger)

        def crash(*args, **kwargs):
            raise RuntimeError("simulated crash after journal append")

        monkeypatch.setattr(broker.accountant, "charge_many", crash)
        with pytest.raises(RuntimeError):
            service.answer(10.0, 70.0, 0.1, 0.5, consumer="c0")

        # The trade reached the journal but never the books.
        assert len(broker.journal) == live_txns + 1
        assert len(broker.ledger) == live_txns
        assert broker.accountant.spent(broker.dataset) == live_spent

        ledger, accountant = recover_accounting(broker.journal)
        # Recovery over-counts the half-landed trade: accounted ε after
        # recovery is at least the ε actually released (never less).
        assert accountant.spent(broker.dataset) > live_spent
        assert len(ledger) == live_txns + 1

    def test_batch_crash_journals_before_any_charge(self, monkeypatch):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 2))
        pre_journal = len(broker.journal)
        pre_txns = len(broker.ledger)

        def crash(*args, **kwargs):
            raise RuntimeError("simulated crash in batch settle")

        monkeypatch.setattr(broker.accountant, "charge_many", crash)
        with pytest.raises(RuntimeError):
            service.answer_many(list(RANGES), 0.1, 0.5, consumer="c1")

        # The whole batch hit the journal atomically; the books saw none
        # of it — recovery can only over-count, never under-count.
        assert len(broker.journal) == pre_journal + len(RANGES)
        assert len(broker.ledger) == pre_txns
        recovered_ledger, recovered_accountant = recover_accounting(
            broker.journal
        )
        assert len(recovered_ledger) == pre_txns + len(RANGES)
        assert recovered_accountant.spent(broker.dataset) >= (
            broker.accountant.spent(broker.dataset)
        )


class TestRecoveryEquivalence:
    def test_mid_run_recovery_is_bit_identical(self):
        """Crash + journal replay halfway equals an uninterrupted twin."""
        uninterrupted = build_service()
        crashed = build_service()

        answers_a = run_trades(uninterrupted, range(0, 7))
        answers_b = run_trades(crashed, range(0, 7))

        # Simulate losing the in-memory books: rebuild them from the
        # journal alone and swap them into the live broker.
        broker = crashed.broker
        ledger, accountant = recover_accounting(
            broker.journal, capacity=broker.accountant.capacity
        )
        assert books_equal(ledger, accountant, broker.ledger, broker.accountant)
        broker.ledger = ledger
        broker.accountant = accountant

        answers_a += run_trades(uninterrupted, range(7, 14))
        answers_b += run_trades(crashed, range(7, 14))

        # Recovery must not perturb anything: values, prices, transaction
        # ids, and the final books all match the uninterrupted run.
        assert [a.value for a in answers_a] == [b.value for b in answers_b]
        assert [a.transaction_id for a in answers_a] == [
            b.transaction_id for b in answers_b
        ]
        assert books_equal(
            uninterrupted.broker.ledger,
            uninterrupted.broker.accountant,
            crashed.broker.ledger,
            crashed.broker.accountant,
        )
