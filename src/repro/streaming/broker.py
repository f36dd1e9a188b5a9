"""The streaming broker: windowed ``(α, δ)`` answers over live epochs.

Same duck-typed trading surface as :class:`~repro.core.broker.DataBroker`
and :class:`~repro.cluster.broker.ClusterBroker` (``quote`` /
``answer`` / ``answer_batch`` / ``replay`` / ``routing_signature`` plus a
``base_station`` exposing ``store_version`` and ``subscribe_commits``),
so the serving gateway, answer cache, and admission controller all wire
up unchanged.  The differences are what streaming forces:

* the sample store is the **merged window** -- the last ``W`` sealed
  epochs folded across shards (:class:`StreamingStation`) -- and its
  fleet shape ``(k_eff, n, p)`` changes on every roll, so plans are
  memoized on the full ``(α, δ, p, k, n)`` key rather than a fixed-fleet
  ``(α, δ, p)``;
* there is **no top-up**: sealed epochs are immutable, so feasibility is
  guaranteed by policy -- the admission bands pin every sellable tier at
  or above the calibration floor the epoch rates were provisioned for
  (``min_alpha = floor.α``, ``max_delta = floor.δ``; feasibility is
  monotone in both), and a window too young to support the floor fails
  loudly with :class:`~repro.errors.InfeasiblePlanError`;
* every release charges the lifetime accountant (audit trail, as
  always) **and** the per-epoch
  :class:`~repro.streaming.accounting.EpochBudgetAccountant`, journaling
  the epoch charge to the window log pre-release so recovery rebuilds
  both books.

Trades are journaled to the standard
:class:`~repro.durability.journal.TradeJournal` before any release
(journal-before-release; this module is in lint rule RL006's scope), with
``store_version`` = the window snapshot the answer was computed against.
A roll that lands mid-batch cannot tear an answer: the batch runs
entirely against the immutable epoch snapshot taken at entry, and the
cache key (window id + store version, via :meth:`routing_signature`)
ensures post-roll lookups miss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settle import SettleMixin, Trade
from repro.errors import (
    InsufficientSamplesError,
    PrivacyBudgetExceededError,
    StreamingError,
)
from repro.estimators.base import RangeCountingEstimator
from repro.estimators.rank import RankCountingEstimator
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.laplace import sample_laplace_many
from repro.privacy.optimizer import PrivacyPlan, optimize_privacy_plan
from repro.resilience.deadline import check_deadline
from repro.streaming.accounting import EpochBudgetAccountant
from repro.streaming.journal import WindowLog
from repro.streaming.window import (
    EpochSummary,
    WindowSummary,
    merge_epoch_summaries,
    pooled_estimate_many,
    pooled_rate,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["StreamingBroker", "StreamingStation", "WindowSnapshot"]


@dataclass(frozen=True)
class WindowSnapshot:
    """An immutable view of the merged window at one store version.

    Everything an answer needs: the live epochs (already merged across
    shards), the monotone ``store_version`` the snapshot was taken at,
    and the derived fleet shape.  Epoch summaries are immutable, so a
    snapshot stays valid -- and keeps answering consistently -- even
    while the station commits further rolls.
    """

    epochs: Tuple[EpochSummary, ...]
    store_version: int

    @property
    def window_id(self) -> str:
        """``w<floor>:<latest>`` -- the cache routing key of this window."""
        if not self.epochs:
            return "w-empty"
        return f"w{self.epochs[0].epoch}:{self.epochs[-1].epoch}"

    @property
    def live_epochs(self) -> Tuple[int, ...]:
        return tuple(s.epoch for s in self.epochs)

    @property
    def record_count(self) -> int:
        return sum(s.record_count for s in self.epochs)

    @property
    def node_count(self) -> int:
        return sum(s.node_count for s in self.epochs)


class StreamingStation:
    """The merged-window store: the streaming analogue of a base station.

    Holds the cross-shard merged ring of live epochs, a monotone
    ``store_version`` bumped on every committed roll, and the
    ``subscribe_commits`` push channel the serving
    :class:`~repro.serving.answer_cache.AnswerCache` binds to -- so every
    window roll push-invalidates cached answers keyed on the previous
    ``(window_id, store_version)``.
    """

    def __init__(self, window_epochs: int) -> None:
        self._window = WindowSummary(window_epochs=window_epochs)
        self._store_version = 0
        self._lock = threading.Lock()
        self._listeners: "List[Callable[[int], None]]" = []

    @property
    def window_epochs(self) -> int:
        return self._window.window_epochs

    @property
    def store_version(self) -> int:
        """Monotone commit counter; bumps once per committed roll."""
        with self._lock:
            return self._store_version

    def subscribe_commits(self, callback: "Callable[[int], None]") -> None:
        """Call ``callback(new_store_version)`` after every committed roll."""
        with self._lock:
            self._listeners.append(callback)

    def commit_roll(
        self, shard_summaries: "Sequence[EpochSummary]"
    ) -> WindowSnapshot:
        """Fold one epoch's per-shard summaries into the merged window.

        All summaries must seal the *same* epoch; the merge is
        order-independent (associative + commutative), the ring evicts
        epochs leaving the window, the store version bumps, and commit
        listeners fire with the new version (the cache-invalidation
        push).  Returns the post-commit snapshot.
        """
        if not shard_summaries:
            raise StreamingError("a roll needs at least one shard summary")
        merged = shard_summaries[0]
        for summary in shard_summaries[1:]:
            merged = merge_epoch_summaries(merged, summary)
        with self._lock:
            self._window.add(merged)
            self._store_version += 1
            version = self._store_version
            snapshot = WindowSnapshot(
                epochs=self._window.epochs(), store_version=version
            )
            listeners = tuple(self._listeners)
        for callback in listeners:
            callback(version)
        return snapshot

    def snapshot(self) -> WindowSnapshot:
        """The current merged window at its store version (atomic)."""
        with self._lock:
            return WindowSnapshot(
                epochs=self._window.epochs(),
                store_version=self._store_version,
            )

    def restore(
        self, epochs: "Sequence[EpochSummary]", store_version: int
    ) -> None:
        """Adopt recovered window state (crash recovery path)."""
        with self._lock:
            self._window.clear()
            for summary in sorted(epochs, key=lambda s: s.epoch):
                self._window.add(summary)
            self._store_version = store_version


@dataclass
class StreamingBroker(SettleMixin):
    """Answers priced, private range counting over the live window.

    Parameters
    ----------
    station:
        The merged-window store (also the cache-binding surface).
    pricing:
        Price sheet.  Streaming windows change ``n`` every roll, so the
        sheet is calibrated against a *nominal* fleet size chosen at
        provisioning time; prices are a market artifact, not an accuracy
        certificate, and stay stable across rolls by design.
    floor:
        The accuracy floor epoch rates are provisioned for.  Admission
        pins sellable tiers to ``α ≥ floor.α`` and ``δ ≤ floor.δ``
        (feasibility is monotone in both), replacing the one-shot
        broker's top-up escape hatch.
    epoch_accountant:
        Per-epoch ε ledgers with expiry (steady-state bound).
    accountant:
        Lifetime audit ledger (capacity ∞ by default) -- the books the
        trade journal recovers, kept identical to the one-shot path.
    window_log:
        When set, every release's per-epoch charge is journaled for
        bit-exact accountant recovery.
    """

    station: StreamingStation
    pricing: PricingFunction
    floor: AccuracySpec
    dataset: str = "stream"
    estimator: RangeCountingEstimator = field(default_factory=RankCountingEstimator)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    accountant: BudgetAccountant = field(default_factory=BudgetAccountant)
    epoch_accountant: EpochBudgetAccountant = field(
        default_factory=EpochBudgetAccountant
    )
    # A broker is a process singleton; the fixed default seed is the
    # documented determinism contract (tests pin golden answers to it).
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))  # repro-lint: disable=RL002
    #: ``None`` (the default) sells exactly the floor bands; set in
    #: ``__post_init__``, so the policy is never ``None`` afterwards.
    policy: BrokerPolicy = None  # type: ignore[assignment]
    planner_grid_points: int = 512
    telemetry: "Optional[MetricsRegistry]" = None
    journal: "Optional[TradeJournal]" = None
    window_log: Optional[WindowLog] = None

    _prefix = "streaming"

    def __post_init__(self) -> None:
        if self.policy is None:
            # The admission bands double as the feasibility certificate:
            # every tier inside them is answerable from any window whose
            # epochs were sealed at the floor-calibrated rate.
            self.policy = BrokerPolicy(
                min_alpha=self.floor.alpha,
                max_delta=self.floor.delta,
            )
        # Window shape (k, n, p) changes across rolls, so plans memoize
        # on the full shape key; bounded like the one-shot broker's memo.
        self._plan_memo: "Dict[Tuple[float, float, float, int, int], PrivacyPlan]" = {}
        # Optional repro.workers process backend (None = in-process path).
        self._process_backend: "Optional[Any]" = None

    # ------------------------------------------------------------------
    # duck-typed broker surface
    # ------------------------------------------------------------------
    @property
    def base_station(self) -> StreamingStation:
        """Cache/gateway binding surface (store_version + subscribe_commits)."""
        return self.station

    def routing_signature(self, query: RangeQuery, spec: AccuracySpec) -> str:
        """The window id answers are currently derived from.

        Folded into the serving cache key next to ``store_version``, so a
        cached answer can only ever replay against the exact
        ``(window_id, store_version)`` it was computed at -- the
        invalidation contract the gateway relies on across rolls.
        """
        return self.station.snapshot().window_id

    # ------------------------------------------------------------------
    # execution backend (repro.workers)
    # ------------------------------------------------------------------
    @property
    def execution(self) -> str:
        """``"threads"`` (default, in-process) or ``"processes"``."""
        return "processes" if self._process_backend is not None else "threads"

    def use_processes(self) -> None:
        """Attach the window worker-process backend.  Idempotent.

        Pooled window estimation moves to a spawned worker fed by a
        shared-memory store republished on every committed roll; noise,
        journaling, and all three books stay in this process, so answers
        are bit-identical to the in-process path for the same seeds.
        """
        if self._process_backend is not None:
            return
        from repro.workers.backend import StreamingProcessBackend

        self._process_backend = StreamingProcessBackend(
            self.station, self.estimator, telemetry=self.telemetry
        )

    def use_threads(self) -> None:
        """Detach the process backend (restore in-process estimation)."""
        backend = self._process_backend
        self._process_backend = None
        if backend is not None:
            backend.close()

    def _pooled_estimates(
        self,
        snapshot: WindowSnapshot,
        ranges: "Sequence[Tuple[float, float]]",
    ) -> np.ndarray:
        """Window estimates for ``ranges`` at ``snapshot``.

        Offloads to the process backend when one is attached and can
        serve this exact ``store_version``; every miss (stale store,
        crashed worker) falls back to the bit-identical in-process sum.
        """
        backend = self._process_backend
        if backend is not None:
            estimates = backend.pooled_estimate_many(snapshot, ranges)
            if estimates is not None:
                return estimates
        return pooled_estimate_many(snapshot.epochs, self.estimator, ranges)

    def _plan(
        self, spec: AccuracySpec, p: float, k: int, n: int
    ) -> PrivacyPlan:
        """Memoized problem-(3) solve for one window shape."""
        key = (spec.alpha, spec.delta, p, k, n)
        plan = self._plan_memo.get(key)
        if plan is None:
            plan = optimize_privacy_plan(
                alpha=spec.alpha,
                delta=spec.delta,
                p=p,
                k=k,
                n=n,
                grid_points=self.planner_grid_points,
            )
            if len(self._plan_memo) > 2048:
                self._plan_memo.clear()
            self._plan_memo[key] = plan
        return plan

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def answer(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> PrivateAnswer:
        """Scalar convenience wrapper over :meth:`answer_batch`."""
        return self.answer_batch([query], [spec], consumer)[0]

    def answer_batch(
        self,
        queries: "List[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: str = "anonymous",
    ) -> "List[PrivateAnswer]":
        """Answer a batch of window queries in one vectorized pass.

        The batch runs against one atomic :class:`WindowSnapshot`: plans,
        estimates, the journaled ``store_version`` and the per-epoch
        charges all describe the same set of live epochs, even if a roll
        commits while the batch is in flight (the snapshot's summaries
        are immutable).  Admission is atomic across the policy's caps,
        the lifetime accountant, *and* every covered epoch ledger -- the
        batch completes in full or charges nothing.
        """
        specs = self._intake(queries, spec, consumer)

        snapshot = self.station.snapshot()
        if snapshot.node_count == 0:
            raise InsufficientSamplesError(
                "window holds no samples yet; seal at least one non-empty "
                "epoch before answering"
            )
        n = snapshot.record_count
        k = snapshot.node_count
        p = pooled_rate(snapshot.epochs)
        live = list(snapshot.live_epochs)

        # Plans and prices once per distinct tier (InfeasiblePlanError
        # propagates: streaming has no top-up escape hatch).
        tiers: "Dict[Tuple[float, float], AccuracySpec]" = {}
        for qspec in specs:
            tiers.setdefault((qspec.alpha, qspec.delta), qspec)
        with self._timer("streaming.plan_s"):
            plans = {
                tier: self._plan(tier_spec, p, k, n)
                for tier, tier_spec in tiers.items()
            }
            prices = {
                tier: self.pricing.price(tier_spec.alpha, tier_spec.delta)
                for tier, tier_spec in tiers.items()
            }

        # Atomic admission: per-consumer cap, lifetime budget, and every
        # live epoch's ledger must fit the whole batch.
        total_epsilon = float(sum(
            plans[(s.alpha, s.delta)].epsilon_prime for s in specs
        ))
        self._admit_epsilon(consumer, total_epsilon, len(queries))
        if not self.epoch_accountant.can_afford(
            self.dataset, live, total_epsilon
        ):
            raise PrivacyBudgetExceededError(
                f"dataset {self.dataset!r}: batch ε′={total_epsilon:.6g} "
                f"would exceed the per-epoch capacity "
                f"{self.epoch_accountant.capacity:.6g} on window epochs "
                f"{live}"
            )

        with self._timer("streaming.estimate_s"):
            ranges = [(q.low, q.high) for q in queries]
            estimates = self._pooled_estimates(snapshot, ranges)
        scales = np.asarray([
            plans[(s.alpha, s.delta)].noise_scale for s in specs
        ])
        noise = sample_laplace_many(scales, self.rng)
        raw_values = estimates + noise
        released = np.clip(raw_values, 0.0, float(n))

        # Journal-before-release: trades to the trade journal, epoch
        # charges to the window log, then (and only then) the books.
        trades: "List[Trade]" = []
        for query, qspec in zip(queries, specs):
            tier = (qspec.alpha, qspec.delta)
            label = f"{consumer}:[{query.low},{query.high}]@{snapshot.window_id}"
            trades.append((
                "release", query, qspec, plans[tier].epsilon_prime,
                prices[tier], label,
            ))
        records = self._trade_records(consumer, trades, snapshot.store_version)

        def charge_epochs() -> None:
            for record in records:
                self.epoch_accountant.charge_window(
                    self.dataset, live, record["epsilon_prime"], record["label"]
                )

        # Last pre-commit checkpoint before the journal/charge sequence.
        check_deadline("streaming.journal")
        with self._timer("streaming.charge_s"):
            self._journal_trades(records)
            if self.window_log is not None:
                for record in records:
                    self.window_log.append_charge(
                        self.dataset, live, record["epsilon_prime"],
                        record["label"],
                    )
            txns = self._book(consumer, records, charge_epochs)
        self._emit("streaming.answers", len(queries))
        self._emit("streaming.epsilon_spent", total_epsilon)
        if self.telemetry is not None:
            self.telemetry.observe("streaming.batch_width", len(queries))

        answers: "List[PrivateAnswer]" = []
        for i, (query, qspec) in enumerate(zip(queries, specs)):
            tier = (qspec.alpha, qspec.delta)
            answers.append(PrivateAnswer(
                value=float(released[i]),
                raw_value=float(raw_values[i]),
                sample_estimate=float(estimates[i]),
                query=query,
                spec=qspec,
                plan=plans[tier],
                price=prices[tier],
                consumer=consumer,
                transaction_id=txns[i].transaction_id,
            ))
        return answers
