"""Scatter-gather behaviour of the multi-shard ClusterBroker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.broker import ClusterAnswer, ClusterBroker
from repro.cluster.shard import build_shards
from repro.core.query import AccuracySpec, RangeQuery
from repro.errors import ClusterError
from repro.serving.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def cluster4(uniform_values):
    broker = ClusterBroker.from_values(
        uniform_values, k=16, shards=4, seed=13
    )
    broker.ensure_rate(0.3)
    return broker


class TestConstruction:
    def test_shard_totals(self, cluster4, uniform_values):
        assert cluster4.n == len(uniform_values)
        assert cluster4.k == 16
        assert len(cluster4.shards) == 4
        assert sum(s.n for s in cluster4.shards) == len(uniform_values)
        assert sum(s.k for s in cluster4.shards) == 16

    def test_rejects_more_shards_than_devices(self, uniform_values):
        with pytest.raises(ClusterError):
            build_shards(uniform_values, k=2, shards=4)

    def test_rejects_empty_values(self):
        with pytest.raises(ClusterError):
            build_shards(np.array([]), k=4, shards=2)

    def test_rejects_unknown_partition(self, uniform_values):
        with pytest.raises(ClusterError):
            build_shards(uniform_values, k=4, shards=2, partition="bogus")

    @pytest.mark.parametrize(
        "partition", ["even", "round-robin", "dirichlet", "range-sharded"]
    )
    def test_partition_strategies_are_lossless(self, uniform_values, partition):
        shards = build_shards(
            uniform_values, k=8, shards=2, partition=partition, seed=3
        )
        assert sum(s.n for s in shards) == len(uniform_values)

    def test_pricing_must_cover_total_n(self, uniform_values):
        from repro.pricing.functions import InverseVariancePricing
        from repro.pricing.variance_model import VarianceModel

        shards = build_shards(uniform_values, k=8, shards=2)
        bad = InverseVariancePricing(VarianceModel(n=10), base_price=1.0)
        with pytest.raises(ValueError):
            ClusterBroker(shards=shards, pricing=bad)


class TestAnswering:
    def test_merged_answer_shape(self, cluster4):
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        answer = cluster4.answer(
            RangeQuery(low=20.0, high=70.0), spec, consumer="c"
        )
        assert isinstance(answer, ClusterAnswer)
        assert len(answer.shard_answers) == 4
        assert answer.raw_value == pytest.approx(
            sum(a.raw_value for a in answer.shard_answers)
        )
        assert 0.0 <= answer.value <= cluster4.n
        assert not answer.degraded
        assert answer.delta_reported == spec.delta

    def test_merged_plan_is_parallel_composition(self, cluster4):
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        answer = cluster4.answer(
            RangeQuery(low=10.0, high=90.0), spec, consumer="c"
        )
        shard_eps = [a.plan.epsilon_prime for a in answer.shard_answers]
        assert answer.plan.epsilon_prime == pytest.approx(max(shard_eps))
        assert answer.plan.n == cluster4.n
        assert answer.plan.k == cluster4.k

    def test_batch_spec_broadcast_and_validation(self, cluster4):
        queries = [
            RangeQuery(low=10.0, high=30.0),
            RangeQuery(low=40.0, high=60.0),
        ]
        answers = cluster4.answer_batch(
            queries, AccuracySpec(alpha=0.2, delta=0.5), consumer="c"
        )
        assert len(answers) == 2
        with pytest.raises(ValueError):
            cluster4.answer_batch([], AccuracySpec(alpha=0.2, delta=0.5))
        with pytest.raises(ValueError):
            cluster4.answer_batch(
                queries, [AccuracySpec(alpha=0.2, delta=0.5)], consumer="c"
            )

    def test_rejects_foreign_dataset(self, cluster4):
        with pytest.raises(ValueError):
            cluster4.answer(
                RangeQuery(low=0.0, high=1.0, dataset="other"),
                AccuracySpec(alpha=0.2, delta=0.5),
            )


class TestAccounting:
    def test_one_consolidated_entry_per_query(self, uniform_values):
        cluster = ClusterBroker.from_values(
            uniform_values, k=16, shards=4, seed=21
        )
        cluster.ensure_rate(0.3)
        queries = [
            RangeQuery(low=float(lo), high=float(lo) + 25.0)
            for lo in range(0, 50, 10)
        ]
        spec = AccuracySpec(alpha=0.15, delta=0.5)
        answers = cluster.answer_batch(queries, spec, consumer="acct")
        txns = cluster.ledger.transactions
        assert len(txns) == len(queries)
        assert all(t.consumer == "acct" for t in txns)
        # Cluster list price, not a sum of shard prices.
        list_price = cluster.quote(spec)
        assert all(t.price == pytest.approx(list_price) for t in txns)
        # Accountant: one label per query, ε′ = max over shards.
        history = cluster.accountant.history("default")
        assert len(history) == len(queries)
        for answer, entry in zip(answers, history):
            expected_eps = max(
                a.plan.epsilon_prime for a in answer.shard_answers
            )
            assert entry.epsilon == pytest.approx(expected_eps)
        spent = cluster.accountant.spent("default")
        assert spent == pytest.approx(
            sum(e.epsilon for e in history)
        )

    def test_telemetry_counters(self, uniform_values):
        telemetry = MetricsRegistry()
        cluster = ClusterBroker.from_values(
            uniform_values, k=8, shards=2, seed=3
        )
        cluster.telemetry = telemetry
        cluster.ensure_rate(0.3)
        cluster.answer_batch(
            [RangeQuery(low=10.0, high=50.0), RangeQuery(low=20.0, high=80.0)],
            AccuracySpec(alpha=0.15, delta=0.5),
            consumer="c",
        )
        assert telemetry.value("cluster.batches") == 1.0
        assert telemetry.value("cluster.answers") == 2.0
        assert telemetry.value("cluster.epsilon_spent") > 0.0
        assert telemetry.value("cluster.shards_healthy") == 2.0
        # One book-keeping stage (journal + books) per batch, inside
        # the gather stage that contains it.
        books = telemetry.histogram("cluster.charge_s")
        assert books.count == 1
        assert 0.0 < books.sum <= telemetry.histogram("cluster.gather_s").sum


class TestEmpiricalGuarantee:
    def test_alpha_delta_guarantee_holds_across_trials(self, uniform_values):
        """≥ δ of 250 independent releases land within α·n of the truth."""
        cluster = ClusterBroker.from_values(
            uniform_values, k=16, shards=4, seed=77
        )
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        cluster.ensure_rate(cluster.planner.required_rate(spec))
        low, high = 25.0, 75.0
        trials = 250
        answers = cluster.answer_batch(
            [RangeQuery(low=low, high=high)] * trials, spec, consumer="trials"
        )
        truth = int(np.sum((uniform_values >= low) & (uniform_values <= high)))
        tolerance = spec.alpha * len(uniform_values)
        within = sum(
            1 for a in answers if abs(a.value - truth) <= tolerance
        )
        assert within / trials >= spec.delta
