"""Accounting and equivalence guarantees of the vectorized batch path.

``DataBroker.answer_batch`` promises to be *semantically identical* to a
scalar ``answer()`` loop: same deterministic estimates (bit for bit),
same noise stream, same ledger transactions, same accountant entries,
same per-consumer policy counters -- only faster.  These tests pin that
contract and the atomic batch admission semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.errors import LedgerError, PrivacyBudgetExceededError
from repro.privacy.budget import BudgetAccountant

SPEC = AccuracySpec(alpha=0.12, delta=0.5)


def make_service(seed=11, policy=None, capacity=None):
    values = np.random.default_rng(4).uniform(0, 100, 5000)
    service = PrivateRangeCountingService.from_values(values, k=8, seed=seed)
    if policy is not None:
        service.broker.policy = policy
    if capacity is not None:
        service.broker.accountant = BudgetAccountant(capacity=capacity)
    return service


def make_queries():
    return [
        RangeQuery(low=float(x), high=float(x) + 25.0)
        for x in (0.0, 10.0, 20.0, 30.0, 10.0)  # note: duplicate of #2
    ]


def run_both():
    """Answer the same workload on two identical stacks, scalar vs batch."""
    scalar_svc, batch_svc = make_service(), make_service()
    queries = make_queries()
    scalar = [
        scalar_svc.broker.answer(q, SPEC, consumer="carol") for q in queries
    ]
    batch = batch_svc.broker.answer_batch(queries, SPEC, consumer="carol")
    return scalar_svc, batch_svc, scalar, batch


class TestBitIdenticalAnswers:
    def test_answers_match_scalar_loop(self):
        _, _, scalar, batch = run_both()
        for s, b in zip(scalar, batch):
            assert b.sample_estimate == s.sample_estimate
            assert b.raw_value == s.raw_value
            assert b.value == s.value
            assert b.price == s.price
            assert b.epsilon_prime == s.epsilon_prime
            assert b.transaction_id == s.transaction_id
            assert b.consumer == s.consumer

    def test_duplicates_fresh_when_not_memoized(self):
        svc = make_service()
        batch = svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert batch[4].raw_value != batch[1].raw_value
        assert len(svc.broker.accountant.history("default")) == 5


class TestAccountingParity:
    def test_ledger_transactions_identical(self):
        scalar_svc, batch_svc, _, _ = run_both()
        assert (
            batch_svc.broker.ledger.transactions
            == scalar_svc.broker.ledger.transactions
        )

    def test_accountant_history_identical(self):
        scalar_svc, batch_svc, _, _ = run_both()
        assert batch_svc.broker.accountant.history(
            "default"
        ) == scalar_svc.broker.accountant.history("default")
        assert batch_svc.privacy_spent() == scalar_svc.privacy_spent()

    def test_policy_counters_identical(self):
        scalar_svc, batch_svc, _, _ = run_both()
        for svc_pair in ((scalar_svc, batch_svc),):
            a, b = svc_pair
            assert b.broker.policy.purchases_by(
                "carol"
            ) == a.broker.policy.purchases_by("carol")
            assert b.broker.policy.epsilon_spent_by(
                "carol"
            ) == a.broker.policy.epsilon_spent_by("carol")

    def test_epsilon_total_matches_answers(self):
        svc = make_service()
        before = svc.privacy_spent()
        answers = svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert svc.privacy_spent() - before == pytest.approx(
            sum(a.epsilon_prime for a in answers)
        )


class TestAtomicAdmission:
    def test_purchase_cap_refuses_whole_batch(self):
        svc = make_service(policy=BrokerPolicy(max_purchases_per_consumer=3))
        with pytest.raises(PolicyViolationError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        # Nothing was charged or billed.
        assert len(svc.broker.ledger) == 0
        assert svc.privacy_spent() == 0.0
        assert svc.broker.policy.purchases_by("c") == 0

    def test_epsilon_cap_refuses_whole_batch(self):
        probe = make_service()
        one = probe.broker.answer(make_queries()[0], SPEC, consumer="c")
        cap = 2.5 * one.epsilon_prime  # room for two of the five releases
        svc = make_service(policy=BrokerPolicy(max_epsilon_per_consumer=cap))
        with pytest.raises(PolicyViolationError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert len(svc.broker.ledger) == 0
        assert svc.broker.policy.epsilon_spent_by("c") == 0.0

    def test_dataset_budget_refuses_whole_batch(self):
        probe = make_service()
        one = probe.broker.answer(make_queries()[0], SPEC, consumer="c")
        svc = make_service(capacity=2.5 * one.epsilon_prime)
        with pytest.raises(PrivacyBudgetExceededError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert len(svc.broker.ledger) == 0
        assert svc.privacy_spent() == 0.0

    def test_spec_band_checked_before_release(self):
        svc = make_service(policy=BrokerPolicy(max_alpha=0.05))
        with pytest.raises(PolicyViolationError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert len(svc.broker.ledger) == 0


class TestPerQuerySpecs:
    def test_one_spec_per_query(self):
        svc = make_service()
        queries = make_queries()[:3]
        specs = [
            AccuracySpec(alpha=0.12, delta=0.5),
            AccuracySpec(alpha=0.2, delta=0.5),
            AccuracySpec(alpha=0.12, delta=0.5),
        ]
        answers = svc.broker.answer_batch(queries, specs, consumer="c")
        assert [a.spec for a in answers] == specs
        # Two distinct tiers -> two distinct plans and prices.
        assert answers[0].plan is answers[2].plan
        assert answers[0].price == answers[2].price
        assert answers[0].plan is not answers[1].plan

    def test_spec_count_mismatch_rejected(self):
        svc = make_service()
        with pytest.raises(ValueError, match="one spec per query"):
            svc.broker.answer_batch(make_queries()[:2], [SPEC], consumer="c")


class TestMarketplaceBuyMany:
    def test_batch_purchase_settles_per_query(self):
        svc = make_service()
        queries = make_queries()[:3]
        price = svc.broker.quote(SPEC)
        svc.market.open_account("dana", funds=price * 3)
        answers = svc.market.buy_many("dana", queries, SPEC)
        assert len(answers) == 3
        assert svc.market.balance_of("dana") == pytest.approx(0.0)
        assert len(svc.market.settlements) == 3
        assert svc.market.spend_of("dana") == pytest.approx(price * 3)

    def test_insufficient_funds_refused_before_release(self):
        svc = make_service()
        queries = make_queries()[:3]
        svc.market.open_account("ed", funds=svc.broker.quote(SPEC) * 2)
        with pytest.raises(LedgerError):
            svc.market.buy_many("ed", queries, SPEC)
        assert svc.privacy_spent() == 0.0
        assert len(svc.broker.ledger) == 0

    def test_empty_batch_rejected(self):
        svc = make_service()
        svc.market.open_account("flo", funds=1.0)
        with pytest.raises(LedgerError):
            svc.market.buy_many("flo", [], SPEC)


class TestServiceAnswerMany:
    def test_answer_many_equals_scalar_answers(self):
        scalar_svc, batch_svc = make_service(), make_service()
        ranges = [(0.0, 25.0), (10.0, 35.0), (20.0, 45.0)]
        scalar = [
            scalar_svc.answer(lo, hi, alpha=SPEC.alpha, delta=SPEC.delta)
            for lo, hi in ranges
        ]
        batch = batch_svc.answer_many(
            ranges, alpha=SPEC.alpha, delta=SPEC.delta
        )
        assert [a.value for a in batch] == [a.value for a in scalar]
        assert [a.sample_estimate for a in batch] == [
            a.sample_estimate for a in scalar
        ]
