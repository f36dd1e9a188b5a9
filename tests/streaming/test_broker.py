"""Unit tests for the streaming broker's trading surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, RangeQuery
from repro.durability.journal import TradeJournal
from repro.errors import (
    InsufficientSamplesError,
    PrivacyBudgetExceededError,
)
from repro.estimators.base import NodeData
from repro.estimators.rank import RankCountingEstimator
from repro.privacy.budget import BudgetAccountant
from repro.pricing.functions import InverseVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.streaming.broker import StreamingBroker, StreamingStation
from repro.streaming.runtime import StreamingConfig, build_streaming_cluster
from repro.streaming.window import EpochSummary

FLOOR = AccuracySpec(alpha=0.15, delta=0.5)


def make_summary(epoch, node_ids, rate=0.8, seed=3, per_node=50):
    rng = np.random.default_rng(seed + epoch)
    samples = []
    for node_id in node_ids:
        node = NodeData(node_id=node_id, values=rng.uniform(0, 100, per_node))
        samples.append(node.sample(rate, rng))
    return EpochSummary(
        epoch=epoch,
        samples=tuple(samples),
        record_count=per_node * len(node_ids),
        rate=rate,
    )


def make_broker(epochs=2, journal=None, accountant=None, seed=7, **kwargs):
    station = StreamingStation(window_epochs=4)
    for epoch in range(epochs):
        station.commit_roll([make_summary(epoch, [1, 2, 3])])
    return StreamingBroker(
        station=station,
        pricing=InverseVariancePricing(VarianceModel(n=150), base_price=10.0),
        floor=FLOOR,
        journal=journal,
        accountant=accountant or BudgetAccountant(),
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestAnswering:
    def test_answer_charges_every_live_epoch(self):
        broker = make_broker(epochs=2)
        answer = broker.answer(
            RangeQuery(low=20.0, high=70.0, dataset="stream"), FLOOR, "alice"
        )
        eps = answer.plan.epsilon_prime
        assert broker.accountant.spent("stream") == pytest.approx(eps)
        for epoch in (0, 1):
            assert broker.epoch_accountant.spent("stream", epoch) == (
                pytest.approx(eps)
            )
        assert broker.ledger.total_revenue() == pytest.approx(answer.price)

    def test_answer_is_clipped_and_plausible(self):
        broker = make_broker(epochs=2)
        answer = broker.answer(
            RangeQuery(low=0.0, high=100.0, dataset="stream"), FLOOR
        )
        assert 0.0 <= answer.value <= 300.0  # n = 2 epochs * 150 records
        assert answer.sample_estimate == pytest.approx(300.0, rel=0.2)

    def test_same_seed_same_answers(self):
        queries = [RangeQuery(low=10.0 * i, high=10.0 * i + 30.0,
                              dataset="stream") for i in range(4)]
        a = make_broker(seed=21).answer_batch(queries, FLOOR, "c")
        b = make_broker(seed=21).answer_batch(queries, FLOOR, "c")
        assert [x.value for x in a] == [y.value for y in b]

    def test_batch_rejects_mismatched_specs(self):
        broker = make_broker()
        with pytest.raises(ValueError):
            broker.answer_batch(
                [RangeQuery(low=0.0, high=1.0, dataset="stream")],
                [FLOOR, FLOOR],
            )

    def test_rejects_foreign_dataset(self):
        broker = make_broker()
        with pytest.raises(ValueError):
            broker.answer(
                RangeQuery(low=0.0, high=1.0, dataset="other"), FLOOR
            )

    def test_empty_window_refuses_to_answer(self):
        broker = StreamingBroker(
            station=StreamingStation(window_epochs=4),
            pricing=InverseVariancePricing(VarianceModel(n=100), base_price=10.0),
            floor=FLOOR,
        )
        with pytest.raises(InsufficientSamplesError):
            broker.answer(RangeQuery(low=0.0, high=1.0, dataset="stream"), FLOOR)

    def test_releases_meet_the_sold_accuracy(self):
        """Def 2.2 on the window: over 40 seeded pipelines the released
        count is within ``α·n`` of the window truth in at least a ``δ``
        share of them."""
        low, high, per_epoch, seeds = 20.0, 70.0, 600, 40
        hits = 0
        for seed in range(seeds):
            cluster = build_streaming_cluster(StreamingConfig(
                shards=2, devices_per_shard=2, window_epochs=2, floor=FLOOR,
                seed=seed,
            ))
            rng = np.random.default_rng(seed)
            truth = 0
            for epoch in range(2):
                values = rng.uniform(0.0, 100.0, per_epoch)
                cluster.ingest(values, epoch + np.arange(per_epoch) / per_epoch)
                cluster.roll()
                truth += int(np.count_nonzero((values >= low) & (values <= high)))
            n = cluster.station.snapshot().record_count
            answer = cluster.broker.answer(
                RangeQuery(low=low, high=high, dataset="stream"), FLOOR, "c"
            )
            hits += abs(answer.value - truth) <= FLOOR.alpha * n
        assert hits >= FLOOR.delta * seeds


class TestAdmission:
    def test_floor_bands_reject_sharper_tiers(self):
        broker = make_broker()
        query = RangeQuery(low=0.0, high=50.0, dataset="stream")
        # Sharper alpha than the floor was provisioned for: rejected at
        # admission, never reaches the planner.
        with pytest.raises(PolicyViolationError):
            broker.answer(query, AccuracySpec(alpha=0.05, delta=0.5))
        # Delta outside the sellable band: same fate.
        with pytest.raises(PolicyViolationError):
            broker.answer(query, AccuracySpec(alpha=0.15, delta=0.6))
        # Inside the bands (α ≥ floor.α, δ ≤ floor.δ) is sellable.
        broker.answer(query, AccuracySpec(alpha=0.3, delta=0.25))

    def test_failed_budget_admission_charges_nothing(self):
        journal = TradeJournal()
        broker = make_broker(
            journal=journal, accountant=BudgetAccountant(capacity=1e-9)
        )
        with pytest.raises(PrivacyBudgetExceededError):
            broker.answer(
                RangeQuery(low=0.0, high=50.0, dataset="stream"), FLOOR, "a"
            )
        assert broker.accountant.spent("stream") == 0.0
        assert broker.epoch_accountant.live_total("stream") == 0.0
        assert broker.ledger.total_revenue() == 0.0
        assert len(journal.entries()) == 0

    def test_epoch_capacity_blocks_batch_atomically(self):
        broker = make_broker(epochs=1)
        probe = broker.answer(
            RangeQuery(low=0.0, high=50.0, dataset="stream"), FLOOR, "a"
        )
        eps = probe.plan.epsilon_prime
        # Fresh broker with epoch headroom for exactly one more release.
        from repro.streaming.accounting import EpochBudgetAccountant
        broker2 = make_broker(
            epochs=1, epoch_accountant=EpochBudgetAccountant(capacity=1.5 * eps)
        )
        queries = [RangeQuery(low=0.0, high=50.0, dataset="stream")] * 2
        with pytest.raises(PrivacyBudgetExceededError):
            broker2.answer_batch(queries, FLOOR, "a")
        assert broker2.epoch_accountant.live_total("stream") == 0.0


class TestJournaling:
    def test_release_is_journaled_before_books(self):
        journal = TradeJournal()
        broker = make_broker(journal=journal)
        answer = broker.answer(
            RangeQuery(low=10.0, high=60.0, dataset="stream"), FLOOR, "bob"
        )
        entries = journal.entries()
        assert len(entries) == 1
        record = entries[0]
        assert record.kind == "release"
        assert record.consumer == "bob"
        assert record.epsilon_prime == pytest.approx(
            answer.plan.epsilon_prime
        )
        assert record.store_version == broker.station.store_version

    def test_replay_costs_zero_epsilon(self):
        journal = TradeJournal()
        broker = make_broker(journal=journal)
        first = broker.answer(
            RangeQuery(low=10.0, high=60.0, dataset="stream"), FLOOR, "bob"
        )
        spent = broker.accountant.spent("stream")
        second = broker.replay(first, "carol")
        assert broker.accountant.spent("stream") == spent
        assert second.value == first.value
        assert second.consumer == "carol"
        assert second.transaction_id != first.transaction_id
        last = journal.entries()[-1]
        assert last.kind == "replay"
        assert last.epsilon_prime == 0.0


class RollDuringEstimate(RankCountingEstimator):
    """Chaos estimator: commits a roll mid-batch, on the first estimate."""

    def __init__(self, station, intruder):
        super().__init__()
        self.station = station
        self.intruder = intruder
        self.fired = False

    def _fire_once(self):
        if not self.fired:
            self.fired = True
            self.station.commit_roll([self.intruder])

    def estimate(self, samples, low, high):
        self._fire_once()
        return super().estimate(samples, low, high)

    def estimate_many(self, samples, ranges):
        self._fire_once()
        return super().estimate_many(samples, ranges)


class TestRollDuringBatch:
    def test_in_flight_batch_answers_from_its_entry_snapshot(self):
        journal = TradeJournal()
        station = StreamingStation(window_epochs=4)
        for epoch in range(2):
            station.commit_roll([make_summary(epoch, [1, 2, 3])])
        version_at_entry = station.store_version
        broker = StreamingBroker(
            station=station,
            pricing=InverseVariancePricing(VarianceModel(n=150), base_price=10.0),
            floor=FLOOR,
            journal=journal,
            estimator=RollDuringEstimate(station, make_summary(2, [1, 2, 3])),
            rng=np.random.default_rng(7),
        )
        queries = [RangeQuery(low=0.0, high=50.0, dataset="stream"),
                   RangeQuery(low=50.0, high=100.0, dataset="stream")]
        broker.answer_batch(queries, FLOOR, "alice")
        # The roll really landed mid-batch...
        assert station.store_version == version_at_entry + 1
        # ...but every journaled trade pins the entry snapshot's version,
        for entry in journal.entries():
            assert entry.store_version == version_at_entry
        # and epoch charges cover exactly the entry snapshot's epochs --
        # epoch 2 (committed mid-flight) was never billed.
        assert broker.epoch_accountant.spent("stream", 2) == 0.0
        assert broker.epoch_accountant.spent("stream", 0) > 0.0

    def test_post_roll_routing_signature_moves(self):
        broker = make_broker(epochs=2)
        query = RangeQuery(low=0.0, high=50.0, dataset="stream")
        before = broker.routing_signature(query, FLOOR)
        broker.station.commit_roll([make_summary(2, [1, 2, 3])])
        after = broker.routing_signature(query, FLOOR)
        assert before == "w0:1"
        assert after == "w0:2"


class TestCommitPush:
    def test_subscribe_commits_fires_with_new_version(self):
        station = StreamingStation(window_epochs=2)
        seen = []
        station.subscribe_commits(seen.append)
        station.commit_roll([make_summary(0, [1])])
        station.commit_roll([make_summary(1, [2])])
        assert seen == [1, 2]

    def test_quote_touches_no_data(self):
        broker = StreamingBroker(
            station=StreamingStation(window_epochs=2),
            pricing=InverseVariancePricing(VarianceModel(n=100), base_price=10.0),
            floor=FLOOR,
        )
        # Quoting an empty window works: prices are list prices.
        assert broker.quote(FLOOR) > 0.0
