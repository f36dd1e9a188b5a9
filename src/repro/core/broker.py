"""The data broker: the trading pipeline's orchestrator (Section II-A).

For each purchased query the broker

1. **plans** -- checks the stored sample supports the ``(α, δ)`` target,
   triggering an incremental top-up collection when it does not;
2. **estimates** -- runs RankCounting over the per-node samples to get an
   ``(α', δ')``-range counting;
3. **perturbs** -- adds Laplace noise at the optimizer's ε so the noisy
   answer is still an ``(α, δ)``-range counting with the smallest amplified
   budget ε′ (optimization problem (3));
4. **charges** -- prices the product with the configured pricing function,
   records the sale in the billing ledger and the ε′ in the privacy
   accountant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.planner import QueryPlanner
from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settle import SettleMixin, Trade
from repro.errors import InfeasiblePlanError
from repro.estimators.base import RangeCountingEstimator
from repro.estimators.rank import RankCountingEstimator
from repro.iot.base_station import BaseStation
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.laplace import sample_laplace_many
from repro.resilience.deadline import check_deadline

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["DataBroker"]


@dataclass
class DataBroker(SettleMixin):
    """Answers priced, differentially private ``(α, δ)``-range counting.

    Parameters
    ----------
    base_station:
        Source of per-node samples (and the handle for top-up rounds).
    pricing:
        The price sheet; its variance model must be built for the same
        ``n`` as the base station serves.
    dataset:
        Billing/budget key of the dataset this broker serves.
    estimator:
        The sampling estimator; RankCounting by default.
    ledger, accountant:
        Billing and privacy accounting; fresh unlimited instances by
        default.
    rng:
        Noise randomness (seeded for reproducible experiments).
    auto_top_up:
        When True (default) an infeasible request triggers an incremental
        collection round at the planner's recommended rate; when False the
        request fails with :class:`InfeasiblePlanError` instead.
    """

    base_station: BaseStation
    pricing: PricingFunction
    dataset: str = "default"
    estimator: RangeCountingEstimator = field(default_factory=RankCountingEstimator)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    accountant: BudgetAccountant = field(default_factory=BudgetAccountant)
    # A broker is a process singleton; the fixed default seed is the
    # documented determinism contract (tests pin golden answers to it).
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))  # repro-lint: disable=RL002
    auto_top_up: bool = True
    planner_grid_points: int = 512
    policy: BrokerPolicy = field(default_factory=BrokerPolicy)
    #: Optional :class:`~repro.serving.telemetry.MetricsRegistry`; when
    #: set, the broker reports stage timings and release counters under
    #: ``broker.*``.  Duck-typed (no serving import) to keep the core
    #: layer dependency-free.
    telemetry: "Optional[MetricsRegistry]" = None
    #: Optional :class:`~repro.durability.journal.TradeJournal`; when set,
    #: every trade is journaled *before* the answer is released or any
    #: accounting state mutates (crash-safety invariant RL006), so
    #: :func:`~repro.durability.recovery.recover_accounting` can rebuild
    #: the exact books after a crash.
    journal: "Optional[TradeJournal]" = None

    def __post_init__(self) -> None:
        # Memo of optimizer runs: the grid search is a pure function of
        # (α, δ, p) for this broker's fixed fleet shape, and cluster
        # routing multiplies the distinct sub-specs each shard sees per
        # batch -- re-planning per batch would dominate latency.
        self._plan_memo: "dict[tuple[float, float, float], PrivacyPlan]" = {}
        self._planner = QueryPlanner(
            k=self.base_station.k,
            n=self.base_station.n,
            grid_points=self.planner_grid_points,
        )
        if self.pricing.variance_model.n != self.base_station.n:
            raise ValueError(
                "pricing variance model is calibrated for "
                f"n={self.pricing.variance_model.n}, but the base station "
                f"serves n={self.base_station.n}"
            )

    @property
    def planner(self) -> QueryPlanner:
        """The planner bound to this broker's fleet shape."""
        return self._planner

    def _plan(self, spec: AccuracySpec, p: float) -> PrivacyPlan:
        """Memoized :meth:`QueryPlanner.plan` (pure in ``(α, δ, p)``)."""
        key = (spec.alpha, spec.delta, p)
        plan = self._plan_memo.get(key)
        if plan is None:
            plan = self._planner.plan(spec, p)
            if len(self._plan_memo) > 2048:
                self._plan_memo.clear()
            self._plan_memo[key] = plan
        return plan

    def _ensure_feasible(self, spec: AccuracySpec) -> None:
        p = self.base_station.sampling_rate
        if p > 0.0 and self._planner.supports(spec, p):
            return
        if not self.auto_top_up:
            raise InfeasiblePlanError(
                f"stored sample (p={p:.6g}) cannot support "
                f"(alpha={spec.alpha}, delta={spec.delta}) and auto_top_up "
                "is disabled"
            )
        target = self._planner.required_rate(spec)
        self.base_station.ensure_rate(max(target, p if p > 0 else target))

    def answer(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> PrivateAnswer:
        """Run the full trade for one query (see :meth:`answer_batch`)."""
        return self.answer_batch([query], spec, consumer=consumer)[0]

    def answer_batch(
        self,
        queries: "list[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: str = "anonymous",
    ) -> "list[PrivateAnswer]":
        """Run the trade for a batch: plan, estimate, perturb, charge.

        The broker's one release path; :meth:`answer` is a batch of one.
        Each release is separately noised and separately charged
        (different ranges overlap, so sequential composition applies);
        a repeat is replayed at ε′ = 0 only through :meth:`replay`, which
        the serving gateway's answer cache calls.  The work is shared
        across the batch:

        * feasibility, privacy planning, and pricing run **once per
          distinct** ``(α, δ)`` tier;
        * the sample store is fetched once and all deterministic
          estimates come from the estimator's vectorized
          ``estimate_many`` (bit-identical to its ``estimate``);
        * Laplace noise is drawn in one vectorized call that consumes
          the generator's bitstream exactly like one draw per query in
          query order;
        * ledger transactions and accountant entries are appended in
          bulk, one per query, in query order.

        ``spec`` may be a single shared tier or one
        :class:`AccuracySpec` per query.  Admission is **atomic**: the
        whole batch is checked against the policy's purchase and ε′ caps
        (and the dataset budget) before anything is journaled or
        released, so a batch either completes in full or charges nothing.
        When mixed tiers trigger a top-up, every tier is planned at the
        final post-top-up rate.
        """
        specs = self._intake(queries, spec, consumer)

        # Feasibility, planning, and pricing: once per distinct tier.
        tiers: "dict[tuple[float, float], AccuracySpec]" = {}
        for qspec in specs:
            tiers.setdefault((qspec.alpha, qspec.delta), qspec)
        with self._timer("broker.batch.plan_s"):
            for tier_spec in tiers.values():
                self._ensure_feasible(tier_spec)
            p = self.base_station.sampling_rate
            plans = {
                tier: self._plan(tier_spec, p)
                for tier, tier_spec in tiers.items()
            }
            prices = {tier: self.pricing.price(*tier) for tier in tiers}
        query_plans = [plans[(s.alpha, s.delta)] for s in specs]

        # Atomic admission against the ε′ caps: the whole batch must fit
        # before anything is estimated, noised, or charged.
        total_epsilon = sum(plan.epsilon_prime for plan in query_plans)
        self._admit_epsilon(consumer, total_epsilon, len(queries))

        # One sample fetch, one vectorized estimation pass, one noise draw.
        with self._timer("broker.batch.estimate_s"):
            samples = self.base_station.samples()
            ranges = [(q.low, q.high) for q in queries]
            estimate_many = getattr(self.estimator, "estimate_many", None)
            if estimate_many is not None:
                estimates = np.asarray(estimate_many(samples, ranges))
            else:
                estimates = np.asarray([
                    self.estimator.estimate(samples, low, high).estimate
                    for low, high in ranges
                ])
        scales = np.asarray([plan.noise_scale for plan in query_plans])
        noise = sample_laplace_many(scales, self.rng)
        raw_values = estimates + noise
        released = np.clip(raw_values, 0.0, float(self.base_station.n))

        # Settle in query order: one ledger transaction, accountant entry
        # and policy count per query, appended in bulk, and journaled as
        # one atomic batch *before* any accounting state mutates
        # (journal-before-release, RL006).
        trades: "list[Trade]" = [
            (
                "release", query, qspec, plan.epsilon_prime,
                prices[(qspec.alpha, qspec.delta)],
                f"{consumer}:[{query.low},{query.high}]",
            )
            for query, qspec, plan in zip(queries, specs, query_plans)
        ]
        records = self._trade_records(
            consumer, trades, self.base_station.store_version
        )
        # Last pre-commit checkpoint: past here the trade is journaled and
        # charged, so an expired deadline must abort *now* or not at all.
        check_deadline("broker.journal")
        with self._timer("broker.batch.charge_s"):
            self._journal_trades(records)
            txns = self._book(consumer, records)
        self._emit("broker.batches")
        self._emit("broker.answers", len(queries))
        self._emit("broker.epsilon_spent", total_epsilon)
        if self.telemetry is not None:
            self.telemetry.observe("broker.batch_width", len(queries))

        return [
            PrivateAnswer(
                value=float(released[i]),
                raw_value=float(raw_values[i]),
                sample_estimate=float(estimates[i]),
                query=query,
                spec=qspec,
                plan=plan,
                price=prices[(qspec.alpha, qspec.delta)],
                consumer=consumer,
                transaction_id=txns[i].transaction_id,
            )
            for i, (query, qspec, plan) in enumerate(
                zip(queries, specs, query_plans)
            )
        ]
