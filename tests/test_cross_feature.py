"""Cross-feature integration: persistence + streaming + audit + catalog.

Scenarios that thread several extensions together, the way a deployment
would: state survives process restarts, a standing streaming query and
ad-hoc purchases share one privacy budget, audits run over catalog
purchases, and the tree collector's output feeds the same broker
pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.audit import audit_answer
from repro.core.catalog import DataCatalog
from repro.core.query import AccuracySpec, RangeQuery
from repro.datasets.citypulse import generate_citypulse
from repro.estimators.rank import RankCountingEstimator
from repro.io import load_ledger, load_samples, save_ledger, save_samples
from repro.privacy.budget import BudgetAccountant
from repro.streaming import StreamingConfig, build_streaming_cluster


class TestRestartSurvival:
    def test_broker_state_survives_restart(self, tmp_path, citypulse_small):
        """Samples + ledger persist; a 'restarted' estimator over the
        loaded samples reproduces the original estimates exactly."""
        from repro.core.service import PrivateRangeCountingService

        service = PrivateRangeCountingService.from_citypulse(
            citypulse_small, "ozone", k=6, seed=20
        )
        service.collect(0.3)
        answer = service.answer(70.0, 110.0, alpha=0.15, delta=0.5,
                                consumer="alice")

        save_samples(tmp_path / "samples.json", service.station.samples())
        save_ledger(tmp_path / "ledger.json", service.broker.ledger)

        # "Restart": rebuild from disk only.
        samples = load_samples(tmp_path / "samples.json")
        ledger = load_ledger(tmp_path / "ledger.json")
        estimate = RankCountingEstimator().estimate(samples, 70.0, 110.0)
        assert estimate.estimate == pytest.approx(answer.sample_estimate)
        assert ledger.spend_of("alice") == pytest.approx(answer.price)

    def test_ledger_continues_after_restart(self, tmp_path):
        from repro.pricing.ledger import BillingLedger

        ledger_before = BillingLedger()
        ledger_before.record("a", "d", 0.1, 0.5, 2.0, 0.01)
        save_ledger(tmp_path / "ledger.json", ledger_before)
        load_after = load_ledger(tmp_path / "ledger.json")
        txn = load_after.record("b", "d", 0.1, 0.5, 3.0, 0.01)
        assert txn.transaction_id == 2
        assert load_after.total_revenue() == pytest.approx(5.0)


class TestMonitorWithSharedAccountant:
    def test_monitor_and_broker_share_one_budget(self, citypulse_small):
        """One accountant governs both ad-hoc queries and the standing
        query on a streaming window: the cap binds their *combined*
        leakage."""
        from repro.core.service import PrivateRangeCountingService
        from repro.errors import PrivacyBudgetExceededError

        accountant = BudgetAccountant(capacity=0.05)
        values = citypulse_small.values("ozone")
        service = PrivateRangeCountingService.from_values(
            values, k=6, dataset="ozone", seed=21
        )
        service.broker.accountant = accountant
        floor = AccuracySpec(alpha=0.15, delta=0.5)
        cluster = build_streaming_cluster(StreamingConfig(
            shards=2, devices_per_shard=2, window_epochs=2, floor=floor,
            dataset="ozone", seed=5,
        ))
        cluster.broker.accountant = accountant
        cluster.ingest(values[:800], np.arange(800) / 800.0)
        cluster.roll()
        standing = RangeQuery(low=70.0, high=110.0, dataset="ozone")

        adhoc = service.answer(70.0, 110.0, alpha=0.2, delta=0.4)
        release = cluster.broker.answer(standing, floor, "monitor")
        assert accountant.spent("ozone") == pytest.approx(
            adhoc.epsilon_prime + release.epsilon_prime
        )
        with pytest.raises(PrivacyBudgetExceededError):
            for _ in range(10_000):
                cluster.broker.answer(standing, floor, "monitor")
        assert accountant.spent("ozone") <= 0.05 + 1e-12


class TestCatalogAudit:
    def test_every_catalog_purchase_passes_audit(self, citypulse_small):
        catalog = DataCatalog.from_citypulse(citypulse_small, k=4, seed=22)
        for index in catalog.keys():
            answer = catalog.answer(index, 60.0, 100.0, alpha=0.2,
                                    delta=0.5, consumer="auditor")
            report = audit_answer(
                answer, pricing=catalog.service(index).broker.pricing
            )
            assert report.passed, [str(f) for f in report.findings]


class TestTreeFeedsPipeline:
    def test_tree_collected_samples_power_private_release(self):
        """The tree extension's samples drive the same privacy pipeline."""
        from repro.estimators.base import NodeData
        from repro.iot.aggregation import TreeCollector
        from repro.iot.channel import Channel
        from repro.iot.device import SmartDevice
        from repro.iot.network import Network
        from repro.iot.topology import TreeTopology
        from repro.privacy.laplace import sample_laplace
        from repro.privacy.optimizer import optimize_privacy_plan

        k, size = 6, 400
        topology = TreeTopology.balanced(k, fanout=2)
        network = Network(topology=topology,
                          channel=Channel(rng=np.random.default_rng(1)))
        rng = np.random.default_rng(2)
        devices = {
            node_id: SmartDevice(
                node_id=node_id,
                data=NodeData(node_id=node_id,
                              values=rng.uniform(0, 100, size)),
                rng=np.random.default_rng(node_id),
            )
            for node_id in topology.node_ids()
        }
        collector = TreeCollector(network=network, topology=topology,
                                  devices=devices)
        collector.collect(0.3)
        plan = optimize_privacy_plan(0.15, 0.5, 0.3, k, k * size)
        estimate = RankCountingEstimator().estimate(
            collector.samples(), 20.0, 70.0
        )
        noisy = estimate.estimate + float(
            sample_laplace(plan.noise_scale, np.random.default_rng(3))
        )
        truth = sum(d.data.exact_count(20.0, 70.0) for d in devices.values())
        assert abs(noisy - truth) <= 2 * 0.15 * k * size
