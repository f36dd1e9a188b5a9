"""Per-layer metrics of a traced run, from spans and the program's registry.

Each metric is computed from the spans the wrappers in :mod:`tracing`
recorded, or read from counters and timers the program already keeps in
its ``MetricsRegistry``.  A metric that does not apply to a workload (no
span of that layer ran) reads 0.  A metric that applies but cannot be
measured from outside is 0 and listed in ``unmeasured`` with the reason.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

import stats
from tracing import DISPATCH_STAGES, Span, Tracer

#: Per-layer metrics and their units, in the order BENCHMARK.json lists them.
UNITS = {
    "serving.queue_wait_ms_p50": "ms",
    "serving.batch_width_mean": "count",
    "serving.dispatch_busy_s": "s",
    "serving.unattributed_share": "ratio",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_op_us_mean": "us",
    "core.batch_calls": "count",
    "core.batch_busy_s": "s",
    "core.batch_fixed_ms": "ms",
    "core.per_query_us": "us",
    "core.replay_busy_s": "s",
    "core.plan_calls": "count",
    "estimators.calls": "count",
    "estimators.busy_s": "s",
    "estimators.share_of_dispatch": "ratio",
    "privacy.noise_busy_s": "s",
    "privacy.charge_busy_s": "s",
    "privacy.charge_growth": "ratio",
    "privacy.spent_calls_per_answer": "count",
    "pricing.ledger_busy_s": "s",
    "pricing.ledger_growth": "ratio",
    "durability.append_busy_s": "s",
    "durability.bytes_per_trade": "bytes",
    "cluster.route_busy_s": "s",
    "cluster.shards_touched_mean": "count",
    "cluster.pruned_share": "ratio",
    "cluster.scatter_busy_s": "s",
    "cluster.gather_busy_s": "s",
    "cluster.slowest_shard_share": "ratio",
    "workers.request_ms_p50": "ms",
    "workers.requests_per_batch": "count",
    "workers.publish_busy_s": "s",
    "workers.fallbacks": "count",
    "workers.respawns": "count",
    "streaming.ingest_ms_p50": "ms",
    "streaming.roll_ms_p50": "ms",
    "streaming.answer_batch_busy_s": "s",
    "streaming.charge_window_share": "ratio",
    "streaming.cache_invalidations_per_roll": "count",
    "iot.collect_s": "s",
    "iot.messages": "count",
    "iot.bytes": "bytes",
    "iot.samples_busy_s": "s",
    "trace.overhead_share": "ratio",
}


#: Times of a layer that some workloads never enter: on those they read 0
#: on every run, which is no measurement, so they are printed and
#: recorded with the traced result but left off its last line.
WORKLOAD_SPECIFIC = frozenset({
    "core.batch_busy_s", "core.batch_fixed_ms", "core.per_query_us",
    "core.replay_busy_s", "durability.append_busy_s",
    "cluster.route_busy_s", "cluster.scatter_busy_s", "cluster.gather_busy_s",
    "workers.request_ms_p50", "workers.publish_busy_s",
    "streaming.ingest_ms_p50", "streaming.roll_ms_p50",
    "streaming.answer_batch_busy_s", "iot.collect_s", "iot.samples_busy_s",
})


def _busy(spans: Sequence[Span]) -> float:
    return sum((s[3] - s[2] for s in spans), 0.0)


def _durations(spans: Sequence[Span]) -> List[float]:
    return [s[3] - s[2] for s in spans]


def _p50_ms(spans: Sequence[Span]) -> float:
    return statistics.median(_durations(spans)) * 1e3 if spans else 0.0


def compute(tracer: Tracer, stack: Any, delivered: int
            ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """All per-layer metrics but ``trace.overhead_share``.

    ``delivered`` counts the answers of the traced phase; the gateway's
    registry and the spans also cover the warm-up inside set-up.
    """
    spans = tracer.by_name()
    get = spans.__getitem__
    registry = stack.gateway.telemetry
    submit_end = {s[5]: s[3] for s in spans["serving.submit"] if s[5] > 0}
    by_id = {s[0]: s for s in tracer.spans}
    out: Dict[str, float] = {name: 0.0 for name in UNITS}
    unmeasured: Dict[str, str] = {}
    dispatch_s = registry.histogram("gateway.dispatch_s").sum

    # -- serving ------------------------------------------------------
    waits = []
    for name in ("core.answer_batch", "cluster.answer_batch",
                 "streaming.answer_batch"):
        for span in get(name):
            if span[4] != -1:
                continue  # a shard broker's batch, not the gateway's
            for request in tracer.batches.get(-span[5], ()):
                if request in submit_end:
                    waits.append(span[2] - submit_end[request])
    if waits:
        out["serving.queue_wait_ms_p50"] = statistics.median(waits) * 1e3
    out["serving.batch_width_mean"] = registry.histogram("gateway.batch_width").mean
    out["serving.dispatch_busy_s"] = dispatch_s
    staged = sum(s[3] - s[2] for s in tracer.spans
                 if s[4] == -1 and s[1] in DISPATCH_STAGES)
    if dispatch_s > 0:
        out["serving.unattributed_share"] = max(0.0, 1.0 - staged / dispatch_s)
    cache = stack.gateway.cache
    if cache is not None:
        cs = cache.stats
        lookups = cs.hits + cs.misses
        out["serving.cache_hit_ratio"] = cs.hits / lookups if lookups else 0.0
    cache_ops = get("serving.cache_get") + get("serving.cache_put")
    if cache_ops:
        out["serving.cache_op_us_mean"] = _busy(cache_ops) / len(cache_ops) * 1e6

    # -- core ---------------------------------------------------------
    batches = get("core.answer_batch")
    out["core.batch_calls"] = float(len(batches))
    out["core.batch_busy_s"] = _busy(batches)
    widths = [float(s[6]) for s in batches]
    if len(set(widths)) >= 2:
        fixed, slope = stats.linear_fit(widths, _durations(batches))
        out["core.batch_fixed_ms"] = fixed * 1e3
        out["core.per_query_us"] = slope * 1e6
    elif batches:
        unmeasured["core.batch_fixed_ms"] = "every batch had the same width"
        unmeasured["core.per_query_us"] = "every batch had the same width"
    out["core.replay_busy_s"] = _busy(get("core.replay"))
    out["core.plan_calls"] = float(len(get("core.plan")))

    # -- estimators ---------------------------------------------------
    # Remote calls wrap the pipe round-trip; a local call nested in one
    # is its fallback and must not count twice.
    remote = get("estimators.remote_many")
    local = [s for s in get("estimators.estimate_many")
             if by_id.get(s[4], (0, ""))[1] != "estimators.remote_many"]
    out["estimators.calls"] = float(len(remote) + len(local))
    out["estimators.busy_s"] = _busy(remote) + _busy(local)
    if dispatch_s > 0:
        out["estimators.share_of_dispatch"] = out["estimators.busy_s"] / dispatch_s

    # -- privacy ------------------------------------------------------
    charges = get("privacy.charge_many")
    spent = get("privacy.spent")
    out["privacy.noise_busy_s"] = _busy(get("privacy.noise"))
    out["privacy.charge_busy_s"] = _busy(charges) + _busy(
        [s for s in spent
         if by_id.get(s[4], (0, ""))[1] != "privacy.charge_many"])
    if len(charges) >= 10:
        out["privacy.charge_growth"] = stats.decile_growth(_durations(charges))
    if delivered:
        out["privacy.spent_calls_per_answer"] = len(spent) / delivered

    # -- pricing ------------------------------------------------------
    ledger = sorted(get("pricing.record_many") + get("pricing.record"),
                    key=lambda s: s[2])
    out["pricing.ledger_busy_s"] = _busy(ledger)
    if len(ledger) >= 10:
        out["pricing.ledger_growth"] = stats.decile_growth(_durations(ledger))

    # -- durability ---------------------------------------------------
    out["durability.append_busy_s"] = _busy(get("durability.append_many"))
    journal = getattr(stack, "journal", None)
    if journal is not None and len(journal):
        journal.close()
        out["durability.bytes_per_trade"] = (
            stack.journal_path.stat().st_size / len(journal))

    # -- cluster ------------------------------------------------------
    cluster_batches = get("cluster.answer_batch")
    out["cluster.route_busy_s"] = _busy(get("cluster.route"))
    if cluster_batches:
        shards = len(stack.broker.shards)
        out["cluster.shards_touched_mean"] = registry.histogram(
            "cluster.shards_touched").mean
        out["cluster.pruned_share"] = registry.histogram(
            "cluster.shards_pruned").mean / shards
        out["cluster.scatter_busy_s"] = registry.histogram("cluster.scatter_s").sum
        out["cluster.gather_busy_s"] = registry.histogram("cluster.gather_s").sum
        lanes: Dict[int, float] = {}
        for lane in get("cluster.shard_answer"):
            lanes[lane[4]] = max(lanes.get(lane[4], 0.0), lane[3] - lane[2])
        shares = [lanes.get(s[0], 0.0) / (s[3] - s[2])
                  for s in cluster_batches if s[3] > s[2]]
        out["cluster.slowest_shard_share"] = statistics.fmean(shares)

    # -- workers ------------------------------------------------------
    requests = get("workers.request")
    if requests:
        out["workers.request_ms_p50"] = _p50_ms(requests)
        if cluster_batches:
            out["workers.requests_per_batch"] = len(requests) / len(cluster_batches)
    out["workers.publish_busy_s"] = _busy(get("workers.publish"))
    out["workers.fallbacks"] = registry.value("workers.fallbacks")
    out["workers.respawns"] = float(sum(
        backend.pool.respawn_count(key)
        for backend in tracer.instances.get("workers.attach", ())
        for key in backend.pool.keys
    ))

    # -- streaming ----------------------------------------------------
    rolls = get("streaming.roll")
    out["streaming.ingest_ms_p50"] = _p50_ms(get("streaming.ingest"))
    out["streaming.roll_ms_p50"] = _p50_ms(rolls)
    stream_busy = _busy(get("streaming.answer_batch"))
    out["streaming.answer_batch_busy_s"] = stream_busy
    if stream_busy > 0:
        out["streaming.charge_window_share"] = (
            _busy(get("streaming.charge_window")) / stream_busy)
    if rolls and cache is not None:
        out["streaming.cache_invalidations_per_roll"] = (
            cache.stats.invalidations / len(rolls))

    # -- iot ----------------------------------------------------------
    out["iot.collect_s"] = _busy(get("iot.ensure_rate"))
    messages, wire = stack_traffic(stack)
    out["iot.messages"] = float(messages)
    out["iot.bytes"] = float(wire)
    out["iot.samples_busy_s"] = _busy(get("iot.samples"))
    return out, unmeasured


def stack_traffic(stack: Any) -> Tuple[int, int]:
    """Messages and wire bytes on every simulated network of a stack."""
    if hasattr(stack, "cluster"):
        meters = [i.network.meter for i in stack.cluster.ingestors
                  if i.network is not None]
    else:
        snapshot = stack.network.meter.snapshot()
        return snapshot["messages"], snapshot["wire_bytes"]
    return (sum(m.total_messages for m in meters),
            sum(m.total_wire_bytes for m in meters))
