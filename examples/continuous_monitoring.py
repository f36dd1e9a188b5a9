"""Continuous monitoring: a standing query over streaming pollution data.

A dashboard keeps a standing count of "ozone in the unhealthy band" over
the last four weeks of readings.  Each week's readings stream into a
sharded ingest pipeline, the week seals into the sliding window, and the
streaming broker sells one fresh private release of the standing query.
A lifetime privacy accountant caps the dashboard's total leakage.

Run:  python examples/continuous_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AccuracySpec,
    RangeQuery,
    StreamingConfig,
    build_streaming_cluster,
)
from repro.datasets import generate_citypulse
from repro.datasets.streams import RecordStream
from repro.errors import PrivacyBudgetExceededError
from repro.privacy.budget import BudgetAccountant

WEEKS_IN_WINDOW = 4
CAPACITY = 0.04


def main() -> None:
    data = generate_citypulse()
    stream = RecordStream(data.values("ozone"), batch_size=288 * 7)  # weekly
    spec = AccuracySpec(alpha=0.1, delta=0.6)
    cluster = build_streaming_cluster(StreamingConfig(
        shards=2,
        devices_per_shard=4,
        window_epochs=WEEKS_IN_WINDOW,
        floor=spec,
        dataset="ozone",
    ))
    cluster.broker.accountant = BudgetAccountant(capacity=CAPACITY)
    query = RangeQuery(low=100.0, high=150.0, dataset="ozone")

    print(
        "standing query: ozone in [100, 150] over the last "
        f"{WEEKS_IN_WINDOW} weeks, alpha=0.1, delta=0.6"
    )
    print(f"privacy capacity: eps' <= {CAPACITY} over the monitor's lifetime\n")
    window: "list[np.ndarray]" = []
    releases = 0
    for week, batch in enumerate(stream.batches()):
        # One epoch per week: timestamps inside [week, week + 1).
        cluster.ingest(batch, week + np.arange(len(batch)) / len(batch))
        snapshot = cluster.roll()
        window = (window + [batch])[-WEEKS_IN_WINDOW:]
        truth = sum(
            int(np.count_nonzero((w >= query.low) & (w <= query.high)))
            for w in window
        )
        try:
            answer = cluster.broker.answer(query, spec, consumer="dashboard")
        except PrivacyBudgetExceededError:
            print(
                f"\nweek {week + 1}: privacy budget exhausted after "
                f"{releases} releases -- the monitor retires rather than "
                "leak beyond its cap."
            )
            return
        releases += 1
        print(
            f"week {week + 1}: n={snapshot.record_count:6d}  "
            f"released {answer.value:8.1f}  (true {truth:5d})  "
            f"eps' {answer.epsilon_prime:.4f}  "
            f"so far {cluster.broker.accountant.spent('ozone'):.4f}"
        )
    print(f"\nstream ended after {releases} releases within the cap.")


if __name__ == "__main__":
    main()
