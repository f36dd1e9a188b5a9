"""The streaming runtime: shard assembly, coordinated rolls, recovery.

:func:`build_streaming_cluster` stands up the full continuous pipeline --
per-shard :class:`~repro.streaming.ingest.ShardIngestor` fleets pushing
over metered :class:`~repro.iot.network.Network` channels, one shared
:class:`~repro.streaming.journal.WindowLog`, the merged-window
:class:`~repro.streaming.broker.StreamingStation`, and the answering
:class:`~repro.streaming.broker.StreamingBroker` -- under the same
deterministic seeding discipline as :func:`repro.cluster.build_cluster`
(shard-strided channel seeds, per-device rng ``seed·100003 + node_id``),
so a seeded run is bit-reproducible end to end.

The :class:`StreamingCluster` coordinates epoch rolls: it computes **one**
shared Bernoulli rate per epoch (calibrated with the same headroom as
:meth:`~repro.core.planner.QueryPlanner.required_rate` -- half the floor
tolerance, half the residual confidence -- so window plans keep
ε-optimization slack), seals every shard at that rate, folds the shard
summaries into the station (which push-invalidates the serving cache),
expires departed epoch budgets, and publishes window gauges.

Crash story: a shard that dies mid-roll (the
:class:`~repro.errors.IngestorCrashError` chaos hook) leaves the window
log as the source of truth -- its sealed epoch is journaled even though
the ring never saw it.  :meth:`StreamingCluster.recover` replays the log
into bit-exact per-shard rings, completes the torn roll (unsealed shards
seal empty: their buffered arrivals died with the process, and the log
only guarantees *sealed* state), rebuilds the merged station, and replays
``charge`` entries into a fresh epoch accountant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.query import AccuracySpec
from repro.datasets.streams import epoch_of
from repro.errors import StaleEpochError, StreamingError
from repro.estimators.calibration import required_sampling_rate
from repro.iot.channel import Channel
from repro.iot.network import Network
from repro.iot.topology import FlatTopology
from repro.pricing.functions import InverseVariancePricing, PricingFunction
from repro.pricing.variance_model import VarianceModel
from repro.serving.telemetry import MetricsRegistry
from repro.streaming.accounting import EpochBudgetAccountant
from repro.streaming.broker import StreamingBroker, StreamingStation, WindowSnapshot
from repro.streaming.ingest import ShardIngestor, StreamDevice
from repro.streaming.journal import WindowLog, rebuild_window_state
from repro.streaming.window import (
    EpochSummary,
    WindowSummary,
    merge_epoch_summaries,
)

__all__ = ["StreamingConfig", "StreamingCluster", "build_streaming_cluster"]

#: Seed stride between shards -- same constant as the one-shot cluster, so
#: shard streams never collide for any realistic shard count.
_SHARD_STRIDE = 1_000_003


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs for :func:`build_streaming_cluster`.

    ``floor`` is the accuracy product epoch rates are provisioned for;
    the broker's admission bands pin every sellable tier at or above it.
    ``nominal_records`` calibrates the price sheet (prices are a stable
    market artifact; the live window's ``n`` drifts every roll).
    """

    shards: int = 4
    devices_per_shard: int = 8
    window_epochs: int = 4
    epoch_length: float = 1.0
    floor: AccuracySpec = field(default_factory=lambda: AccuracySpec(0.15, 0.5))
    dataset: str = "stream"
    seed: int = 7
    loss_probability: float = 0.0
    base_price: float = 10.0
    nominal_records: int = 4096
    epoch_capacity: float = float("inf")
    grid_points: int = 512

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.devices_per_shard <= 0:
            raise ValueError("devices_per_shard must be positive")
        if self.window_epochs <= 0:
            raise ValueError("window_epochs must be positive")
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if self.nominal_records <= 0:
            raise ValueError("nominal_records must be positive")


class StreamingCluster:
    """The assembled continuous pipeline plus its roll coordinator."""

    def __init__(
        self,
        config: StreamingConfig,
        ingestors: "List[ShardIngestor]",
        broker: StreamingBroker,
        window_log: WindowLog,
        telemetry: MetricsRegistry,
    ) -> None:
        self.config = config
        self.ingestors = ingestors
        self.broker = broker
        self.window_log = window_log
        self.telemetry = telemetry
        self._arrivals = 0  # global round-robin shard routing cursor

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------
    @property
    def station(self) -> StreamingStation:
        return self.broker.station

    @property
    def device_count(self) -> int:
        return sum(len(ingestor.devices) for ingestor in self.ingestors)

    @property
    def open_epoch(self) -> int:
        """The epoch currently accepting arrivals (min across shards)."""
        return min(ingestor.open_epoch for ingestor in self.ingestors)

    @property
    def pending_count(self) -> int:
        return sum(ingestor.pending_count for ingestor in self.ingestors)

    # ------------------------------------------------------------------
    # arrival side
    # ------------------------------------------------------------------
    def ingest(
        self,
        values: "Sequence[float]",
        timestamps: "Sequence[float]",
    ) -> int:
        """Route one timestamped batch round-robin across the shards.

        Deterministic: record ``j`` of the stream always lands on shard
        ``j mod shards`` regardless of batch boundaries.  Shard-level
        epoch validation applies (late/future batches raise
        :class:`~repro.errors.StaleEpochError` before anything buffers).
        """
        values = np.asarray(values, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if len(values) != len(timestamps):
            raise ValueError("values and timestamps must be parallel")
        if len(values) == 0:
            return 0
        shards = len(self.ingestors)
        offsets = (self._arrivals + np.arange(len(values))) % shards
        # Pre-validate the whole batch against every shard's open epoch so
        # rejection is atomic across shards, not just within one: without
        # this, shard 0 could buffer its slice before shard 1 rejects.
        first = epoch_of(
            float(np.min(timestamps)),
            self.config.epoch_length,
            self.ingestors[0].origin,
        )
        last = epoch_of(
            float(np.max(timestamps)),
            self.config.epoch_length,
            self.ingestors[0].origin,
        )
        for ingestor in self.ingestors:
            if first < ingestor.open_epoch:
                raise StaleEpochError(
                    f"batch carries records for sealed epoch {first} (shard "
                    f"{ingestor.shard_id} is open at {ingestor.open_epoch}); "
                    "late data is rejected at the edge",
                    epoch=first,
                    open_epoch=ingestor.open_epoch,
                )
            if last > ingestor.open_epoch:
                raise StaleEpochError(
                    f"batch carries records for future epoch {last} (shard "
                    f"{ingestor.shard_id} is open at {ingestor.open_epoch}); "
                    "roll the window before shipping the next epoch",
                    epoch=last,
                    open_epoch=ingestor.open_epoch,
                )
        accepted = 0
        for shard_id, ingestor in enumerate(self.ingestors):
            mask = offsets == shard_id
            if not np.any(mask):
                continue
            accepted += ingestor.ingest(values[mask], timestamps[mask])
        self._arrivals += len(values)
        return accepted

    # ------------------------------------------------------------------
    # roll side
    # ------------------------------------------------------------------
    def epoch_rate(self) -> float:
        """The coordinator's shared Bernoulli rate for the open epoch.

        Calibrated so the *post-roll* window supports the floor product
        with planner headroom (half the tolerance, half the residual
        confidence, as in
        :meth:`~repro.core.planner.QueryPlanner.required_rate`): ``k_eff``
        counts surviving window samples plus every device (each may
        contribute one non-empty sample this epoch), and ``n`` counts
        surviving records plus the pending arrivals.
        """
        snapshot = self.station.snapshot()
        window = self.config.window_epochs
        open_epoch = self.open_epoch
        surviving = [
            s for s in snapshot.epochs if s.epoch > open_epoch - window
        ]
        k_eff = sum(s.node_count for s in surviving) + self.device_count
        n_after = sum(s.record_count for s in surviving) + self.pending_count
        if n_after == 0:
            return 0.0
        floor = self.config.floor
        return required_sampling_rate(
            floor.alpha * 0.5,
            floor.delta + (1.0 - floor.delta) * 0.5,
            k_eff,
            n_after,
        )

    def roll(self, crash_shard: Optional[int] = None) -> WindowSnapshot:
        """Seal the open epoch on every shard and commit the merged roll.

        The commit bumps the station's ``store_version`` and fires its
        commit listeners -- the push that invalidates every cached answer
        keyed on the previous window.  Departed epoch budgets are expired
        (reclaimed) in the same step, and window gauges are refreshed.

        ``crash_shard`` is the chaos hook: that shard journals its seal
        and then dies (:class:`~repro.errors.IngestorCrashError`
        propagates; call :meth:`recover` to resume).
        """
        started = time.perf_counter()
        rate = self.epoch_rate()
        summaries: "List[EpochSummary]" = []
        for ingestor in self.ingestors:
            summaries.append(
                ingestor.seal(
                    rate,
                    crash_after_journal=(ingestor.shard_id == crash_shard),
                )
            )
        snapshot = self.station.commit_roll(summaries)
        floor_epoch = snapshot.live_epochs[0]
        reclaimed = self.broker.epoch_accountant.expire_before(
            self.config.dataset, floor_epoch
        )
        elapsed = time.perf_counter() - started
        self.telemetry.inc("streaming.rolls")
        self.telemetry.set_gauge(
            "streaming.window_occupancy", float(len(snapshot.epochs))
        )
        self.telemetry.set_gauge(
            "streaming.bucket_count", float(snapshot.node_count)
        )
        self.telemetry.set_gauge(
            "streaming.window_records", float(snapshot.record_count)
        )
        self.telemetry.set_gauge("streaming.roll_latency_s", elapsed)
        self.telemetry.observe("streaming.roll_s", elapsed)
        if reclaimed:
            self.telemetry.inc("streaming.epsilon_reclaimed", reclaimed)
        return snapshot

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> WindowSnapshot:
        """Rebuild every layer of window state from the window log.

        1. Replay ``roll`` entries into bit-exact per-shard rings (the
           crashed shard's sealed epoch is journaled, so it recovers even
           though its in-memory ring never saw it).
        2. Complete any torn roll: shards that never sealed the torn
           epoch seal it *empty* at the journaled rate -- their buffered
           arrivals died with the process, and the log only guarantees
           sealed state.
        3. Re-merge the rings into the station (one store-version bump
           per recovered epoch, so version = epochs sealed, exactly as a
           crash-free run would have produced).
        4. Replay ``charge`` entries into a fresh epoch accountant, then
           expire everything below the recovered window floor.
        """
        windows, charges = rebuild_window_state(
            self.window_log.entries(), self.config.window_epochs
        )
        sealed_epochs = sorted({
            summary.epoch
            for window in windows.values()
            for summary in window.epochs()
        })
        if not sealed_epochs:
            raise StreamingError("window log holds no rolls to recover from")
        latest = sealed_epochs[-1]
        # Rates by epoch, from any journaled summary of that epoch.
        rates: "Dict[int, float]" = {}
        for window in windows.values():
            for summary in window.epochs():
                rates.setdefault(summary.epoch, summary.rate)

        # 1 + 2: adopt recovered rings, then seal what the crash tore.
        for ingestor in self.ingestors:
            recovered = windows.get(
                ingestor.shard_id,
                WindowSummary(window_epochs=self.config.window_epochs),
            )
            ingestor.restore_window(recovered)
            while ingestor.open_epoch <= latest:
                ingestor.seal(rates.get(ingestor.open_epoch, 0.0))

        # 3: merged station state, one version per sealed epoch.
        merged_ring = WindowSummary(window_epochs=self.config.window_epochs)
        for epoch in range(
            max(0, latest - self.config.window_epochs + 1), latest + 1
        ):
            merged: "Optional[EpochSummary]" = None
            for ingestor in self.ingestors:
                for summary in ingestor.window.epochs():
                    if summary.epoch != epoch:
                        continue
                    merged = (
                        summary
                        if merged is None
                        else merge_epoch_summaries(merged, summary)
                    )
            if merged is not None:
                merged_ring.add(merged)
        self.station.restore(merged_ring.epochs(), store_version=latest + 1)

        # 4: epoch budgets -- replay, then expire below the live floor.
        accountant = EpochBudgetAccountant(
            capacity=self.broker.epoch_accountant.capacity
        )
        for entry in charges:
            accountant.charge_window(
                entry.data["dataset"],
                [int(e) for e in entry.data["epochs"]],
                float(entry.data["epsilon"]),
                str(entry.data["label"]),
            )
        floor_epoch = latest - self.config.window_epochs + 1
        accountant.expire_before(self.config.dataset, floor_epoch)
        self.broker.epoch_accountant = accountant

        snapshot = self.station.snapshot()
        self.telemetry.inc("streaming.recoveries")
        self.telemetry.set_gauge(
            "streaming.window_occupancy", float(len(snapshot.epochs))
        )
        self.telemetry.set_gauge(
            "streaming.bucket_count", float(snapshot.node_count)
        )
        return snapshot


def build_streaming_cluster(
    config: "Optional[StreamingConfig]" = None,
    pricing: "Optional[PricingFunction]" = None,
    window_log: "Optional[WindowLog]" = None,
    telemetry: "Optional[MetricsRegistry]" = None,
) -> StreamingCluster:
    """Assemble a seeded streaming cluster from one config.

    Seeding mirrors the one-shot cluster: shard ``s``'s channel rng is
    ``default_rng(seed + s·stride)``, device ``i``'s sampling rng is
    ``default_rng(seed·100003 + i)``, and the broker's noise rng is
    ``default_rng(seed + 1 + shards·stride)`` -- all streams disjoint, so
    two same-config builds replay bit-identically.
    """
    config = config or StreamingConfig()
    window_log = window_log if window_log is not None else WindowLog()
    telemetry = telemetry if telemetry is not None else MetricsRegistry()

    ingestors: "List[ShardIngestor]" = []
    for shard_id in range(config.shards):
        device_ids = [
            shard_id * config.devices_per_shard + j + 1
            for j in range(config.devices_per_shard)
        ]
        devices = [
            StreamDevice(
                node_id=node_id,
                rng=np.random.default_rng(config.seed * 100_003 + node_id),
            )
            for node_id in device_ids
        ]
        network = Network(
            topology=FlatTopology(device_ids=device_ids),
            channel=Channel(
                loss_probability=config.loss_probability,
                rng=np.random.default_rng(
                    config.seed + shard_id * _SHARD_STRIDE
                ),
            ),
        )
        ingestors.append(
            ShardIngestor(
                shard_id=shard_id,
                devices=devices,
                window_epochs=config.window_epochs,
                epoch_length=config.epoch_length,
                network=network,
                log=window_log,
            )
        )

    station = StreamingStation(window_epochs=config.window_epochs)
    broker = StreamingBroker(
        station=station,
        pricing=pricing
        or InverseVariancePricing(
            VarianceModel(n=config.nominal_records),
            base_price=config.base_price,
        ),
        floor=config.floor,
        dataset=config.dataset,
        epoch_accountant=EpochBudgetAccountant(capacity=config.epoch_capacity),
        rng=np.random.default_rng(
            config.seed + 1 + config.shards * _SHARD_STRIDE
        ),  # repro-lint: disable=RL002
        planner_grid_points=config.grid_points,
        telemetry=telemetry,
        window_log=window_log,
    )
    return StreamingCluster(
        config=config,
        ingestors=ingestors,
        broker=broker,
        window_log=window_log,
        telemetry=telemetry,
    )
