"""Core trading pipeline: queries, planning, broker, consumers, marketplace.

Extensions beyond the paper's one-shot setting live here too, such as
:mod:`repro.core.audit` (consumer-side verification of purchased answers);
standing queries over arriving data are :mod:`repro.streaming`.
"""

from repro.core.audit import AuditFinding, AuditReport, audit_answer, audit_noise_scale
from repro.core.broker import DataBroker
from repro.core.catalog import DataCatalog, UnknownDatasetError
from repro.core.consumer import ArbitrageConsumer, ArbitrageOutcome, HonestConsumer
from repro.core.histogram import (
    HistogramRelease,
    equal_width_edges,
    release_histogram,
)
from repro.core.planner import QueryPlanner
from repro.core.private_quantile import (
    PrivateQuantileRelease,
    release_quantile,
)
from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.reports import operations_report, price_sheet
from repro.core.service import PrivateRangeCountingService
from repro.core.trading import Marketplace, Settlement, Wallet

__all__ = [
    "AuditFinding",
    "AuditReport",
    "audit_answer",
    "audit_noise_scale",
    "DataBroker",
    "DataCatalog",
    "UnknownDatasetError",
    "PrivateQuantileRelease",
    "release_quantile",
    "ArbitrageConsumer",
    "ArbitrageOutcome",
    "HonestConsumer",
    "HistogramRelease",
    "equal_width_edges",
    "release_histogram",
    "QueryPlanner",
    "BrokerPolicy",
    "PolicyViolationError",
    "AccuracySpec",
    "PrivateAnswer",
    "RangeQuery",
    "operations_report",
    "price_sheet",
    "PrivateRangeCountingService",
    "Marketplace",
    "Settlement",
    "Wallet",
]
