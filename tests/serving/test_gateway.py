"""Gateway tests: equivalence with direct broker calls, concurrency,
caching semantics, and load shedding."""

from __future__ import annotations

import threading

import pytest

from repro.core.query import RangeQuery
from repro.errors import (
    GatewayClosedError,
    QuotaExceededError,
    ServiceOverloadedError,
    ServingError,
)
from repro.serving import AdmissionController, ServingConfig

from .conftest import RANGES, TIERS, build_service

ALPHA, DELTA = TIERS[0].alpha, TIERS[0].delta

#: Gateway tuning for deterministic tests: no cache (pure pass-through),
#: a window wide enough that pre-submitted requests coalesce into one batch.
PASSTHROUGH = ServingConfig(batch_window=0.05, enable_cache=False)


class TestLifecycle:
    def test_context_manager_starts_and_stops(self, service):
        with service.serve(config=PASSTHROUGH) as gateway:
            assert gateway.running
        assert not gateway.running

    def test_submit_after_stop_raises(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        gateway.start()
        gateway.stop()
        with pytest.raises(GatewayClosedError):
            gateway.submit_range(0.0, 50.0, ALPHA, DELTA)

    def test_stop_is_idempotent(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        gateway.start()
        gateway.stop()
        gateway.stop()

    def test_stop_drains_presubmitted_requests(self, service):
        # A never-started gateway still settles every pending future on stop.
        gateway = service.serve(config=PASSTHROUGH)
        future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        gateway.stop()
        assert future.done()
        assert future.exception() is None
        assert len(service.broker.ledger) == 1


class TestEquivalence:
    def test_single_batch_bit_identical_to_answer_many(self):
        """One consumer's coalesced batch == ``answer_many`` on a twin stack."""
        ranges = [RANGES[i % len(RANGES)] for i in range(20)]

        serving = build_service()
        gateway = serving.serve(config=PASSTHROUGH)
        futures = [
            gateway.submit_range(low, high, ALPHA, DELTA, consumer="alice")
            for low, high in ranges
        ]
        with gateway:  # workers pick the whole queue up as one batch
            answers = [f.result(timeout=10.0) for f in futures]

        twin = build_service()
        baseline = twin.answer_many(ranges, ALPHA, DELTA, consumer="alice")

        for got, want in zip(answers, baseline):
            assert got.value == want.value  # bit-identical, not approx
            assert got.raw_value == want.raw_value
            assert got.price == want.price
            assert got.transaction_id == want.transaction_id
        assert serving.broker.ledger.total_revenue() == pytest.approx(
            twin.broker.ledger.total_revenue()
        )
        assert serving.privacy_spent() == pytest.approx(twin.privacy_spent())

    def test_concurrent_consumers_keep_identical_books(self):
        """N threads through the gateway write the same books as the
        equivalent serial batched calls: same ledger length, revenue,
        per-consumer totals, accountant spend, and policy counters."""
        consumers = 4
        per_consumer = 30
        plans = {
            f"c{c}": [
                (RANGES[(c + r) % len(RANGES)], TIERS[r % len(TIERS)])
                for r in range(per_consumer)
            ]
            for c in range(consumers)
        }

        serving = build_service()
        with serving.serve(config=PASSTHROUGH) as gateway:
            futures = []
            lock = threading.Lock()

            def drive(consumer: str) -> None:
                for (low, high), spec in plans[consumer]:
                    future = gateway.submit_range(
                        low, high, spec.alpha, spec.delta, consumer=consumer
                    )
                    with lock:
                        futures.append(future)

            threads = [
                threading.Thread(target=drive, args=(name,))
                for name in plans
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            answers = [f.result(timeout=10.0) for f in futures]
        assert len(answers) == consumers * per_consumer

        twin = build_service()
        for name, requests in plans.items():
            twin.broker.answer_batch(
                [
                    RangeQuery(low=low, high=high, dataset=twin.broker.dataset)
                    for (low, high), _ in requests
                ],
                [spec for _, spec in requests],
                consumer=name,
            )

        assert len(serving.broker.ledger) == len(twin.broker.ledger)
        assert serving.broker.ledger.total_revenue() == pytest.approx(
            twin.broker.ledger.total_revenue()
        )
        assert serving.broker.ledger.revenue_by_consumer() == pytest.approx(
            twin.broker.ledger.revenue_by_consumer()
        )
        assert serving.privacy_spent() == pytest.approx(twin.privacy_spent())
        for name in plans:
            assert serving.broker.policy.purchases_by(name) == per_consumer
            assert serving.broker.policy.epsilon_spent_by(
                name
            ) == pytest.approx(twin.broker.policy.epsilon_spent_by(name))


class TestCaching:
    def test_repeat_query_replays_at_zero_epsilon(self, service):
        config = ServingConfig(batch_window=0.001)
        with service.serve(config=config) as gateway:
            first = gateway.answer(0.0, 50.0, ALPHA, DELTA, consumer="alice")
            spent_after_first = service.privacy_spent()
            second = gateway.answer(0.0, 50.0, ALPHA, DELTA, consumer="bob")
        # Same released value, billed again to its new buyer, zero extra ε.
        assert second.value == first.value
        assert second.consumer == "bob"
        assert service.broker.ledger.spend_of("bob") > 0
        assert service.privacy_spent() == pytest.approx(spent_after_first)
        transactions = service.broker.ledger.transactions
        assert len(transactions) == 2
        assert transactions[0].epsilon_prime > 0.0
        assert transactions[1].epsilon_prime == 0.0
        assert transactions[1].price == pytest.approx(transactions[0].price)
        assert gateway.telemetry.value("gateway.cache_replays") == 1

    def test_in_window_duplicates_coalesce_to_one_release(self, service):
        gateway = service.serve(config=ServingConfig(batch_window=0.05))
        futures = [
            gateway.submit_range(0.0, 50.0, ALPHA, DELTA, consumer=f"c{i}")
            for i in range(3)
        ]
        with gateway:
            answers = [f.result(timeout=10.0) for f in futures]
        assert len({a.value for a in answers}) == 1  # one released value
        transactions = service.broker.ledger.transactions
        assert len(transactions) == 3  # every hand-over is billed
        assert sum(1 for t in transactions if t.epsilon_prime > 0.0) == 1
        plan_epsilon = service.broker.planner.plan(
            TIERS[0], service.station.sampling_rate
        ).epsilon_prime
        assert service.privacy_spent() == pytest.approx(plan_epsilon)

    def test_collection_round_invalidates_cache(self, service):
        config = ServingConfig(batch_window=0.001)
        with service.serve(config=config) as gateway:
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            assert len(gateway.cache) == 1
            spent_before = service.privacy_spent()

            service.collect(service.station.sampling_rate + 0.2)

            assert len(gateway.cache) == 0  # purged on commit
            fresh = gateway.answer(0.0, 50.0, ALPHA, DELTA)
            assert fresh.transaction_id == 2
        # The new store demands a fresh release: ε was spent again.
        assert service.privacy_spent() > spent_before
        assert service.broker.ledger.transactions[1].epsilon_prime > 0.0

    def test_cache_disabled_every_release_is_fresh(self, service):
        with service.serve(config=PASSTHROUGH) as gateway:
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
        transactions = service.broker.ledger.transactions
        assert all(t.epsilon_prime > 0.0 for t in transactions)


class TestLoadShedding:
    def test_full_queue_sheds_with_overload_error(self, service):
        gateway = service.serve(
            config=ServingConfig(queue_depth=1, enable_cache=False)
        )
        first = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        with pytest.raises(ServiceOverloadedError):
            gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        assert isinstance(ServiceOverloadedError("x"), ServingError)
        gateway.stop()
        assert first.result().value is not None
        assert gateway.telemetry.value("gateway.shed") == 1
        # The shed request was never billed and never spent ε.
        assert len(service.broker.ledger) == 1

    def test_quota_refusal_happens_before_any_data_is_touched(self, service):
        admission = AdmissionController()
        gateway = service.serve(
            config=PASSTHROUGH,
            admission=admission,
        )
        price = service.broker.quote(TIERS[0])
        admission.register("alice", deposit=1.5 * price)
        gateway.submit_range(0.0, 50.0, ALPHA, DELTA, consumer="alice")
        with pytest.raises(QuotaExceededError):
            gateway.submit_range(0.0, 60.0, ALPHA, DELTA, consumer="alice")
        gateway.stop()
        # Only the admitted request reached the books.
        assert len(service.broker.ledger) == 1
        assert service.broker.ledger.spend_of("alice") == pytest.approx(price)

    def test_admission_ledger_defaults_to_brokers(self, service):
        admission = AdmissionController()
        gateway = service.serve(config=PASSTHROUGH, admission=admission)
        assert admission.ledger is service.broker.ledger
        gateway.stop()


class TestTelemetry:
    def test_snapshot_covers_gateway_broker_and_cache(self, service):
        with service.serve() as gateway:
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            snap = gateway.snapshot()
        assert snap["counters"]["gateway.served"] == 2
        assert snap["counters"]["broker.answers"] == 1
        assert snap["counters"]["broker.replays"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["histograms"]["gateway.latency_s"]["count"] == 2
        assert "gateway.dispatch_s" in snap["histograms"]
