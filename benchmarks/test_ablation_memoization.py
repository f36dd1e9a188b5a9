"""Ablation A10: answer memoization as an arbitrage/privacy defense.

Identical repeated queries can be served from a cache of already-released
answers: re-releasing a published value is post-processing (zero
additional ε), and the Example 4.1 adversary's averaged portfolio
collapses to a single cheap answer.  This bench quantifies both effects
against a deliberately attackable price sheet: the fresh-noise arm buys
straight from the broker, the memoized arm buys through the serving
gateway, whose answer cache replays the first release.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.reporting import format_table
from repro.core.consumer import ArbitrageConsumer
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.pricing.functions import PowerLawVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.serving import ServingConfig

TARGET = AccuracySpec(alpha=0.05, delta=0.8)
QUERY_BOUNDS = (80.0, 110.0)


def _service(values):
    pricing = PowerLawVariancePricing(
        VarianceModel(n=len(values)), exponent=2.0, base_price=1e10
    )
    return PrivateRangeCountingService.from_values(
        values, k=DEVICE_COUNT, dataset="ozone", seed=13, pricing=pricing
    )


def _attack_through_cache(service, adversary, query):
    """The adversary's averaging attack, bought through the gateway."""
    attack = adversary.plan_attack(service.broker, TARGET)
    cheap = AccuracySpec(alpha=attack.purchase[0], delta=attack.purchase[1])
    with service.serve(ServingConfig(batch_window=0.001)) as gateway:
        answers = [
            gateway.submit(query, cheap, consumer=adversary.name).result()
            for _ in range(attack.copies)
        ]
    averaged = sum(a.raw_value for a in answers) / len(answers)
    return len(answers), sum(a.price for a in answers), averaged


def test_ablation_memoization_defense(citypulse, benchmark, save_result):
    values = citypulse.values("ozone")
    query = RangeQuery(low=QUERY_BOUNDS[0], high=QUERY_BOUNDS[1],
                       dataset="ozone")
    truth = int(
        np.count_nonzero((values >= QUERY_BOUNDS[0])
                         & (values <= QUERY_BOUNDS[1]))
    )

    def run():
        rows = []
        for memoize in (False, True):
            service = _service(values)
            adversary = ArbitrageConsumer(name="eve")
            if memoize:
                purchases, paid, estimate = _attack_through_cache(
                    service, adversary, query
                )
            else:
                outcome = adversary.attempt(service.broker, query, TARGET)
                purchases, paid, estimate = (
                    outcome.purchases, outcome.paid, outcome.estimate
                )
            rows.append(
                (
                    "memoized" if memoize else "fresh-noise",
                    purchases,
                    float(paid),
                    float(abs(estimate - truth) / service.n),
                    float(service.privacy_spent()),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_memoization",
        "# ablation: memoization vs the averaging adversary "
        "(power-law s=2 sheet)\n"
        + format_table(
            ["broker", "purchases", "paid", "final_err_over_n",
             "eps_prime_spent"],
            rows,
        ),
    )

    fresh, memo = rows
    assert fresh[0] == "fresh-noise" and memo[0] == "memoized"
    # The adversary repeats purchases either way (money arbitrage exists),
    # but the memoizing broker leaks once instead of m times ...
    assert memo[4] < fresh[4] / 10
    # ... and the averaged estimate no longer improves: the memoized error
    # is that of ONE cheap high-variance answer, typically far worse than
    # the averaged fresh answers.
    assert memo[3] >= fresh[3] * 0.5
