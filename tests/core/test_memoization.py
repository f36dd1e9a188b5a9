"""Replaying released answers defeats the averaging adversary.

The serving gateway's answer cache re-releases a published value to every
later buyer of the same ``(range, α, δ)`` at ε′ = 0 (post-processing).
Against that cache the Example 4.1 adversary pays m prices for m copies
of one number: zero variance reduction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.consumer import ArbitrageConsumer
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.pricing.functions import PowerLawVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.serving import ServingConfig


class TestMemoizationDefeatsAveraging:
    def test_attack_gains_nothing_from_identical_answers(self):
        values = np.random.default_rng(3).uniform(0, 100, 3000)
        pricing = PowerLawVariancePricing(
            VarianceModel(n=3000), exponent=2.0, base_price=1e10
        )
        service = PrivateRangeCountingService.from_values(
            values, k=6, dataset="default", seed=3, pricing=pricing
        )
        adversary = ArbitrageConsumer(name="eve")
        target = AccuracySpec(alpha=0.05, delta=0.8)
        attack = adversary.plan_attack(service.broker, target)
        # The power-law s=2 sheet is attackable: money arbitrage exists.
        assert attack is not None and attack.copies > 1
        cheap = AccuracySpec(alpha=attack.purchase[0], delta=attack.purchase[1])
        query = RangeQuery(low=20.0, high=70.0, dataset="default")
        with service.serve(ServingConfig(batch_window=0.001)) as gateway:
            answers = [
                gateway.submit(query, cheap, consumer="eve").result(timeout=10.0)
                for _ in range(attack.copies)
            ]
        # Every copy is billed, but the statistical benefit is gone: all
        # purchased answers are equal and only the first one leaked.
        purchases = service.broker.ledger.purchases_of("eve")
        assert len(purchases) == attack.copies
        assert len({a.raw_value for a in answers}) == 1
        assert service.privacy_spent() == pytest.approx(
            max(t.epsilon_prime for t in purchases)
        )
