"""Broker journaling: entry content, ordering, and journal-before-charge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.errors import DeadlineExceededError, PrivacyBudgetExceededError
from repro.resilience import Deadline, ManualClock, deadline_scope
from repro.streaming.broker import StreamingBroker
from tests.chaos.conftest import DEVICES, RANGES, RECORDS
from tests.streaming.test_broker import FLOOR as STREAM_FLOOR
from tests.streaming.test_broker import make_broker as make_streaming_broker


def build_service(shards: int = 1) -> PrivateRangeCountingService:
    values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICES, seed=11, shards=shards
    )
    service.broker.journal = TradeJournal()
    return service


class TestDataBrokerJournal:
    def test_answer_journals_the_full_trade(self):
        service = build_service()
        broker = service.broker
        answer = service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        assert len(broker.journal) == 1
        entry = broker.journal.entries()[0]
        assert entry.kind == "release"
        assert entry.consumer == "alice"
        assert entry.dataset == broker.dataset
        assert (entry.low, entry.high) == (10.0, 70.0)
        assert (entry.alpha, entry.delta) == (0.1, 0.5)
        assert entry.epsilon_prime == answer.plan.epsilon_prime
        assert entry.price == answer.price
        assert entry.store_version == broker.base_station.store_version
        assert entry.label == "alice:[10.0,70.0]"

    def test_batch_journals_one_entry_per_query_in_order(self):
        service = build_service()
        answers = service.answer_many(list(RANGES), 0.1, 0.5, consumer="bob")
        entries = service.broker.journal.entries()
        assert len(entries) == len(RANGES)
        assert [e.answer_id for e in entries] == list(
            range(1, len(RANGES) + 1)
        )
        assert [(e.low, e.high) for e in entries] == list(RANGES)
        assert [e.epsilon_prime for e in entries] == [
            a.plan.epsilon_prime for a in answers
        ]

    def test_replay_journals_zero_epsilon_but_full_price(self):
        service = build_service()
        broker = service.broker
        first = service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        second = broker.replay(first, "carol")
        assert second.value == first.value  # replayed, not re-noised
        entries = broker.journal.entries()
        assert [e.kind for e in entries] == ["release", "replay"]
        assert entries[1].epsilon_prime == 0.0
        assert entries[1].price == entries[0].price
        assert entries[1].consumer == "carol"

    def test_journal_order_matches_ledger_order(self):
        service = build_service()
        for step, (low, high) in enumerate(RANGES):
            service.answer(low, high, 0.1, 0.5, consumer=f"c{step % 2}")
        service.answer_many(list(RANGES), 0.15, 0.4, consumer="c2")
        entries = service.broker.journal.entries()
        txns = service.broker.ledger.transactions
        assert len(entries) == len(txns)
        for entry, txn in zip(entries, txns):
            assert entry.consumer == txn.consumer
            assert entry.price == txn.price
            assert entry.epsilon_prime == txn.epsilon_prime

    def test_journal_append_precedes_every_charge(self, monkeypatch):
        """RL006 dynamics: a charge crash leaves the trade journaled."""
        service = build_service()
        broker = service.broker

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(broker.accountant, "charge_many", crash)
        with pytest.raises(RuntimeError):
            service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        assert len(broker.journal) == 1
        assert len(broker.ledger) == 0

    def test_no_journal_attached_is_a_noop(self):
        service = build_service()
        service.broker.journal = None
        answer = service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        assert answer.plan.epsilon_prime > 0


class TestClusterBrokerJournal:
    def test_cluster_batch_journals_one_consolidated_entry_per_query(self):
        service = build_service(shards=2)
        broker = service.broker
        answers = service.answer_many(list(RANGES), 0.1, 0.5, consumer="dana")
        entries = broker.journal.entries()
        # One consolidated release per query -- per-shard sub-trades are
        # internal transfers and never hit the journal.
        assert len(entries) == len(RANGES)
        assert all(e.kind == "release" for e in entries)
        assert all(e.epsilon_prime > 0 for e in entries)
        assert [e.price for e in entries] == [a.price for a in answers]
        assert all(e.dataset == broker.dataset for e in entries)

    def test_cluster_replay_journals_zero_epsilon(self):
        service = build_service(shards=2)
        broker = service.broker
        [cached] = service.answer_many([RANGES[0]], 0.1, 0.5, consumer="dana")
        replayed = broker.replay(cached, consumer="erin")
        entries = broker.journal.entries()
        assert entries[-1].kind == "replay"
        assert entries[-1].epsilon_prime == 0.0
        assert entries[-1].consumer == "erin"
        assert replayed.value == cached.value


class TestStreamingBrokerJournal:
    def test_release_journals_the_window_trade(self):
        journal = TradeJournal()
        broker = make_streaming_broker(journal=journal)
        query = RangeQuery(low=20.0, high=70.0, dataset="stream")
        answer = broker.answer(query, STREAM_FLOOR, "alice")
        [entry] = journal.entries()
        assert entry.kind == "release"
        assert entry.consumer == "alice"
        assert entry.dataset == broker.dataset
        assert (entry.low, entry.high) == (20.0, 70.0)
        assert (entry.alpha, entry.delta) == (
            STREAM_FLOOR.alpha, STREAM_FLOOR.delta
        )
        assert entry.epsilon_prime == answer.plan.epsilon_prime
        assert entry.price == answer.price
        assert entry.store_version == broker.station.store_version
        # Releases pin the window they were computed against.
        assert entry.label == "alice:[20.0,70.0]@w0:1"

    def test_replay_journals_zero_epsilon_at_the_current_version(self):
        journal = TradeJournal()
        broker = make_streaming_broker(journal=journal)
        query = RangeQuery(low=20.0, high=70.0, dataset="stream")
        cached = broker.answer(query, STREAM_FLOOR, "alice")
        spent = broker.accountant.spent(broker.dataset)
        epoch_spent = broker.epoch_accountant.live_total(broker.dataset)
        replayed = broker.replay(cached, consumer="bob")
        entries = journal.entries()
        assert [e.kind for e in entries] == ["release", "replay"]
        replay = entries[1]
        assert replay.consumer == "bob"
        assert replay.epsilon_prime == 0.0
        assert replay.price == entries[0].price
        assert replay.store_version == broker.station.store_version
        assert replay.label == "bob:[20.0,70.0]"
        assert replayed.value == cached.value
        assert replayed.transaction_id == broker.ledger.transactions[-1].transaction_id
        assert broker.ledger.transactions[-1].epsilon_prime == 0.0
        # Post-processing: neither the lifetime nor the epoch books move.
        assert broker.accountant.spent(broker.dataset) == spent
        assert broker.epoch_accountant.live_total(broker.dataset) == epoch_spent


def _ranges_for(broker):
    if isinstance(broker, StreamingBroker):
        return [RangeQuery(low=20.0, high=70.0, dataset="stream")], STREAM_FLOOR
    return [RangeQuery(low=low, high=high) for low, high in RANGES], (
        AccuracySpec(alpha=0.1, delta=0.5)
    )


@pytest.mark.parametrize("kind", ["core", "cluster", "streaming"])
def test_epsilon_cap_refusal_is_atomic(kind):
    """A per-consumer ε-cap refusal journals, charges and bills nothing."""
    if kind == "streaming":
        broker = make_streaming_broker(
            journal=TradeJournal(),
            policy=BrokerPolicy(
                min_alpha=STREAM_FLOOR.alpha,
                max_delta=STREAM_FLOOR.delta,
                max_epsilon_per_consumer=1e-9,
            ),
        )
    else:
        broker = build_service(shards=2 if kind == "cluster" else 1).broker
        broker.policy = BrokerPolicy(max_epsilon_per_consumer=1e-9)
    queries, spec = _ranges_for(broker)
    with pytest.raises(PolicyViolationError):
        broker.answer_batch(queries, spec, consumer="mallory")
    assert len(broker.journal) == 0
    assert len(broker.ledger) == 0
    assert broker.accountant.datasets() == ()
    assert broker.policy.purchases_by("mallory") == 0
    if kind == "streaming":
        assert broker.epoch_accountant.live_total(broker.dataset) == 0.0


def _journaled_broker(kind):
    if kind == "streaming":
        return make_streaming_broker(journal=TradeJournal())
    return build_service(shards=2 if kind == "cluster" else 1).broker


def _books(broker, consumer):
    epochs = getattr(broker, "epoch_accountant", None)
    return (
        len(broker.journal),
        len(broker.ledger),
        broker.accountant.history(broker.dataset),
        broker.policy.purchases_by(consumer),
        epochs.live_total(broker.dataset) if epochs is not None else None,
    )


@pytest.mark.parametrize("kind", ["core", "cluster", "streaming"])
def test_dataset_capacity_refusal_of_one_answer_books_nothing(kind):
    """``answer`` refused at the dataset's ε capacity leaves every book as
    it was: no journal record, no purchase, no sale, no charge."""
    broker = _journaled_broker(kind)
    dataset = "stream" if kind == "streaming" else "default"
    _, spec = _ranges_for(broker)
    broker.answer(RangeQuery(low=20.0, high=70.0, dataset=dataset), spec, "alice")
    broker.accountant.capacity = broker.accountant.spent(broker.dataset)
    before = _books(broker, "alice")
    with pytest.raises(PrivacyBudgetExceededError):
        broker.answer(
            RangeQuery(low=30.0, high=60.0, dataset=dataset), spec, "alice"
        )
    assert _books(broker, "alice") == before


@pytest.mark.parametrize("kind", ["core", "cluster", "streaming"])
def test_expired_deadline_refuses_one_answer_before_booking(kind):
    """``answer`` under an expired deadline journals, charges and bills
    nothing."""
    broker = _journaled_broker(kind)
    queries, spec = _ranges_for(broker)
    clock = ManualClock()
    deadline = Deadline.after(0.1, clock=clock)
    clock.advance(1.0)
    with deadline_scope(deadline), pytest.raises(DeadlineExceededError):
        broker.answer(queries[0], spec, consumer="alice")
    assert len(broker.journal) == 0
    assert len(broker.ledger) == 0
    assert broker.accountant.datasets() == ()
    assert broker.policy.purchases_by("alice") == 0
    if kind == "streaming":
        assert broker.epoch_accountant.live_total(broker.dataset) == 0.0
