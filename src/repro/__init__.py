"""repro -- reproduction of *Trading Private Range Counting over Big IoT Data*.

Cai & He, ICDCS 2019.  The library implements the paper's full system:

* :mod:`repro.estimators` -- the RankCounting estimator (unbiased,
  ``Var ≤ 8k/p²``), the BasicCounting baseline, and Theorem 3.3 calibration;
* :mod:`repro.privacy` -- Laplace/geometric mechanisms, amplification by
  sampling (Lemma 3.4), and the privacy-budget optimizer (problem (3));
* :mod:`repro.pricing` -- the variance model ``V(α, δ)``, the
  arbitrage-avoiding inverse-variance price family (Theorem 4.2), the
  property checker, and the averaging-attack adversary (Example 4.1);
* :mod:`repro.iot` -- simulated devices, base station, topologies and
  message-cost metering;
* :mod:`repro.datasets` -- the CityPulse pollution surrogate and synthetic
  workloads;
* :mod:`repro.core` -- the broker, marketplace and the
  :class:`PrivateRangeCountingService` facade;
* :mod:`repro.streaming` -- continuous private range counting over
  sliding windows with per-epoch privacy budgets (see docs/STREAMING.md).

Quickstart::

    from repro import PrivateRangeCountingService
    from repro.datasets import generate_citypulse

    data = generate_citypulse()
    service = PrivateRangeCountingService.from_citypulse(data, "ozone", k=16)
    answer = service.answer(60.0, 100.0, alpha=0.1, delta=0.5)
    print(answer.value, answer.price, answer.epsilon_prime)
"""

from repro.core import (
    AccuracySpec,
    ArbitrageConsumer,
    ArbitrageOutcome,
    AuditReport,
    DataBroker,
    HonestConsumer,
    Marketplace,
    PrivateAnswer,
    PrivateRangeCountingService,
    QueryPlanner,
    RangeQuery,
    Settlement,
    Wallet,
    audit_answer,
    audit_noise_scale,
)
from repro.errors import (
    ArbitrageError,
    CalibrationError,
    ClusterError,
    GatewayClosedError,
    InfeasiblePlanError,
    InsufficientSamplesError,
    InvalidAccuracyError,
    InvalidQueryError,
    LedgerError,
    PricingError,
    PrivacyBudgetExceededError,
    QuotaExceededError,
    RateLimitedError,
    ReproError,
    ServiceOverloadedError,
    ServingError,
    ShardUnavailableError,
    StaleEpochError,
    StreamingError,
)
from repro.streaming import (
    StreamingBroker,
    StreamingCluster,
    StreamingConfig,
    build_streaming_cluster,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AccuracySpec",
    "ArbitrageConsumer",
    "ArbitrageOutcome",
    "AuditReport",
    "audit_answer",
    "audit_noise_scale",
    "DataBroker",
    "HonestConsumer",
    "Marketplace",
    "PrivateAnswer",
    "PrivateRangeCountingService",
    "QueryPlanner",
    "RangeQuery",
    "Settlement",
    "Wallet",
    "ReproError",
    "InvalidQueryError",
    "InvalidAccuracyError",
    "CalibrationError",
    "InfeasiblePlanError",
    "PrivacyBudgetExceededError",
    "PricingError",
    "ArbitrageError",
    "InsufficientSamplesError",
    "LedgerError",
    "ServingError",
    "ServiceOverloadedError",
    "RateLimitedError",
    "QuotaExceededError",
    "GatewayClosedError",
    "ClusterError",
    "ShardUnavailableError",
    "StreamingError",
    "StaleEpochError",
    "StreamingBroker",
    "StreamingCluster",
    "StreamingConfig",
    "build_streaming_cluster",
]
