"""Continuous private range counting over sliding windows.

The streaming subsystem extends the one-shot trading pipeline to live
IoT feeds: devices push timestamped batches into per-shard ingestors,
epochs seal into mergeable bounded-memory window summaries, and a
:class:`~repro.streaming.broker.StreamingBroker` sells ``(α, δ)``
answers over the last ``W`` epochs with per-epoch privacy budgets that
expire -- and are reclaimed -- as epochs leave the window.  See
``docs/STREAMING.md`` for the window model and the cache-invalidation
contract.
"""

from repro.streaming.accounting import EpochBudgetAccountant, EpochCharge
from repro.streaming.bench import run_streaming_bench, streaming_bench_healthy
from repro.streaming.broker import (
    StreamingBroker,
    StreamingStation,
    WindowSnapshot,
)
from repro.streaming.ingest import ShardIngestor, StreamDevice
from repro.streaming.journal import (
    WindowLog,
    WindowLogEntry,
    rebuild_window_state,
)
from repro.streaming.runtime import (
    StreamingCluster,
    StreamingConfig,
    build_streaming_cluster,
)
from repro.streaming.window import (
    EpochSummary,
    WindowSummary,
    merge_epoch_summaries,
    pooled_estimate,
    pooled_estimate_many,
    pooled_rate,
    window_checksum,
)

__all__ = [
    "EpochBudgetAccountant",
    "EpochCharge",
    "EpochSummary",
    "ShardIngestor",
    "StreamDevice",
    "StreamingBroker",
    "StreamingCluster",
    "StreamingConfig",
    "StreamingStation",
    "WindowLog",
    "WindowLogEntry",
    "WindowSnapshot",
    "WindowSummary",
    "build_streaming_cluster",
    "merge_epoch_summaries",
    "pooled_estimate",
    "pooled_estimate_many",
    "pooled_rate",
    "rebuild_window_state",
    "run_streaming_bench",
    "streaming_bench_healthy",
    "window_checksum",
]
