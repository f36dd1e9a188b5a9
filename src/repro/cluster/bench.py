"""The cluster benchmark driver: healthy and failover throughput.

One reusable harness behind both ``repro cluster-bench`` and
``benchmarks/test_cluster.py``: it drives the serving gateway through a
:class:`~repro.cluster.broker.ClusterBroker` with the standard
closed-loop load generator, so every number it reports comes with the
load generator's exact accounting-drift audit attached.

Phases (all optional):

* **single** -- the plain one-station gateway, the baseline the paper's
  system model implies;
* **cluster** -- the same workload against ``s``-shard federations;
* **failover** -- the largest federation again, with shard 0's primary
  killed mid-run through the health monitor; the run must complete with
  zero failures, degraded answers visible in telemetry, and unchanged
  accounting.

Determinism: everything except wall-clock timing is a pure function of
``seed`` -- the reported ``determinism_checksum`` (a fixed direct batch
against a fresh twin cluster) and the accounting fields are reproducible
run-to-run, which is what CI trend tooling diffs.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.broker import ClusterBroker
from repro.cluster.health import ShardHealthMonitor
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService

__all__ = [
    "DEFAULT_TIERS",
    "ROUTED_TIERS",
    "run_cluster_bench",
    "make_routed_workload",
]

#: The standard mixed-tier product mix of the serving benchmarks.
DEFAULT_TIERS: "Tuple[AccuracySpec, ...]" = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.6),
    AccuracySpec(alpha=0.2, delta=0.5),
)

#: Tier mix for the range-routed phases.  Drill-down alert queries
#: demand tighter accuracy than broad overviews, and tolerances with
#: ``α ≤ ALPHA_BOOST_CAP / s`` fit entirely inside one shard's boosted
#: release (``α·n ≤ 0.95·n/s``), so routing keeps its full advantage
#: at every benchmarked shard count.
ROUTED_TIERS: "Tuple[AccuracySpec, ...]" = (
    AccuracySpec(alpha=0.05, delta=0.5),
    AccuracySpec(alpha=0.08, delta=0.6),
    AccuracySpec(alpha=0.11, delta=0.5),
)


def _workload_ranges(
    values: np.ndarray, count: int, seed: int
) -> "List[Tuple[float, float]]":
    from repro.analysis.metrics import make_workload

    return list(make_workload(values, num_queries=count, seed=seed).ranges)


def make_routed_workload(
    values: np.ndarray,
    count: int,
    seed: int,
    narrow_fraction: float = 0.75,
) -> "List[Tuple[float, float]]":
    """A bimodal range mix that rewards band-aware routing.

    Real IoT dashboards are dominated by *drill-downs* (narrow value
    windows -- alerts, threshold bands) with occasional *overviews*
    (one-sided threshold counts: "readings above/below x").
    Quantile-anchored: ``narrow_fraction`` of the ranges select 0.2--0.8%
    of the data (they fit inside one shard band at any realistic shard
    count, so most shards prune), the rest select 50--90% anchored at a
    domain edge (they
    *contain* every interior band, which answers exactly from cached
    totals, and only the single boundary band releases fresh noise).
    Mid-width two-sided ranges -- the worst case for routing, straddling
    several bands without containing any -- are deliberately absent; the
    even partition phases keep covering that regime.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0.0 <= narrow_fraction <= 1.0:
        raise ValueError("narrow_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n < 2:
        raise ValueError("need at least two records to build a workload")
    narrow = int(round(count * narrow_fraction))
    out: "List[Tuple[float, float]]" = []
    for i in range(count):
        if i < narrow:
            selectivity = rng.uniform(0.002, 0.008)
            start = rng.uniform(0.0, 1.0 - selectivity)
        else:
            selectivity = rng.uniform(0.5, 0.9)
            # Alternate "below x" / "above x" threshold overviews.
            start = 0.0 if i % 2 == 0 else 1.0 - selectivity
        lo = int(start * (n - 1))
        hi = min(n - 1, int((start + selectivity) * (n - 1)))
        out.append((float(ordered[lo]), float(ordered[max(hi, lo)])))
    return out


def _pruning_stats(telemetry) -> "Dict[str, float]":
    """Routing observability extracted from a phase's metrics registry."""
    return {
        "shards_touched_mean": telemetry.histogram("cluster.shards_touched").mean,
        "shards_pruned_mean": telemetry.histogram("cluster.shards_pruned").mean,
        "delta_split_mean": telemetry.histogram("cluster.delta_split").mean,
        "routed_queries": telemetry.value("cluster.routed_queries"),
        "metadata_answers": telemetry.value("cluster.metadata_answers"),
    }


def _serve_config(
    window: float,
    max_batch: int,
    enable_cache: bool = True,
    execution: str = "threads",
    gateway_workers: int = 1,
):
    from repro.serving import ServingConfig

    return ServingConfig(
        batch_window=window,
        max_batch=max_batch,
        enable_cache=enable_cache,
        execution=execution,
        workers=gateway_workers,
    )


def _warm_planner(broker, ranges, tiers) -> None:
    """Prime plan/route caches so the timed loop measures steady state.

    Planning is a pure function of ``(α, δ, p)`` (plus the route for a
    cluster), so pre-computing every workload plan spends no privacy
    budget and releases nothing -- it only keeps the optimizer's grid
    search out of the latency tail, exactly as a production deployment
    would after its first scrape of each dashboard.
    """
    target = max(broker.planner.required_rate(spec) for spec in tiers)
    broker.base_station.ensure_rate(target)
    rate = broker.base_station.sampling_rate
    plan_for_range = getattr(broker.planner, "plan_for_range", None)
    plan = getattr(broker, "_plan", broker.planner.plan)
    for low, high in ranges:
        for spec in tiers:
            if plan_for_range is not None:
                plan_for_range(low, high, spec, rate)
            else:
                plan(spec, rate)


def _run_gateway_phase(
    gateway,
    ranges: "List[Tuple[float, float]]",
    tiers: "Sequence[AccuracySpec]",
    consumers: int,
    requests: int,
) -> "Dict[str, object]":
    import gc

    from repro.serving import Workload, run_closed_loop

    _warm_planner(gateway.broker, ranges, tiers)
    # Phases share one process: collect the previous phase's teardown
    # garbage now so a later phase's tail latency does not pay for an
    # earlier phase's heap.
    gc.collect()
    workload = Workload(ranges=ranges, tiers=tiers)
    per_consumer = max(1, requests // consumers)
    with gateway:
        result = run_closed_loop(
            gateway,
            workload,
            consumers=consumers,
            requests_per_consumer=per_consumer,
        )
    return result.to_payload()


def _backend_checksum(
    values: np.ndarray,
    devices: int,
    shards: int,
    seed: int,
    ranges: "List[Tuple[float, float]]",
    tiers: "Sequence[AccuracySpec]",
    partition: str,
    execution: str,
    probes: int = 32,
) -> float:
    """A fixed direct (gateway-free) batch on a fresh twin cluster.

    Single consumer, fixed query order, loss-free channels: the released
    values are a pure function of ``seed``, so this checksum is the
    run-to-run reproducibility witness of the bench JSON.  Threads vs
    processes on the same seed must agree bit-for-bit -- the workers
    phase's ``checksums_identical`` gate compares the two.
    """
    cluster = ClusterBroker.from_values(
        values, k=devices, shards=shards, seed=seed, partition=partition
    )
    if execution == "processes":
        cluster.use_processes()
    try:
        queries: "List[RangeQuery]" = []
        specs: "List[AccuracySpec]" = []
        for i in range(probes):
            low, high = ranges[i % len(ranges)]
            queries.append(RangeQuery(low=low, high=high))
            specs.append(tiers[i % len(tiers)])
        target = max(cluster.planner.required_rate(spec) for spec in set(specs))
        cluster.ensure_rate(target)
        answers = cluster.answer_batch(queries, specs, consumer="audit")
        return float(sum(a.value for a in answers))
    finally:
        cluster.use_threads()


def run_cluster_bench(
    values: np.ndarray,
    devices: int = 64,
    shard_counts: "Sequence[int]" = (4, 8),
    requests: int = 500,
    consumers: int = 4,
    ranges: int = 16,
    tiers: "Sequence[AccuracySpec]" = DEFAULT_TIERS,
    seed: int = 11,
    window: float = 0.004,
    max_batch: int = 64,
    partition: str = "even",
    baseline: bool = True,
    failover: bool = True,
    routed: bool = True,
    replica_confidence: float = 0.9,
    heartbeat_interval: float = 30.0,
    execution: str = "threads",
    gateway_workers: int = 1,
    workers_compare: bool = True,
) -> "Dict[str, object]":
    """Run the full single/cluster/failover comparison; returns the payload.

    The payload is ready for
    :func:`~repro.serving.loadgen.write_bench_json` and carries one
    entry per phase plus the determinism checksum.  With ``routed=True``
    a second sweep runs on *range-sharded* partitions under the bimodal
    :func:`make_routed_workload` (1 shard, then every ``shard_counts``
    entry), reporting per-scale pruning stats -- the headline showing
    federation winning both ε and latency once the planner can route.

    ``execution`` selects the cluster phases' estimation backend
    (``"processes"`` = the :mod:`repro.workers` per-shard worker
    runtime).  With ``workers_compare=True`` a dedicated ``workers``
    phase reruns one cache-free cluster workload under *both* backends
    and reports the speedup, the host core count, and the
    backend-checksum identity gate -- the ``BENCH_cluster.json``
    evidence for the multi-core scaling acceptance (≥3x at 4 shards on
    an 8-core box; single-core hosts still assert zero drift and
    checksum identity).
    """
    from repro.serving import ServingGateway
    from repro.serving.telemetry import MetricsRegistry

    values = np.asarray(values, dtype=np.float64)
    query_ranges = _workload_ranges(values, ranges, seed)
    payload: "Dict[str, object]" = {
        "records": int(len(values)),
        "devices": int(devices),
        "requests": int(requests),
        "consumers": int(consumers),
        "ranges": int(ranges),
        "tiers": [(spec.alpha, spec.delta) for spec in tiers],
        "seed": int(seed),
        "partition": partition,
        "execution": execution,
    }

    if baseline:
        service = PrivateRangeCountingService.from_values(
            values, k=devices, seed=seed
        )
        gateway = service.serve(_serve_config(window, max_batch))
        payload["single"] = _run_gateway_phase(
            gateway, query_ranges, tiers, consumers, requests
        )

    clusters: "Dict[str, object]" = {}
    for s in shard_counts:
        service = PrivateRangeCountingService.from_values(
            values, k=devices, seed=seed, shards=s, partition=partition
        )
        gateway = service.serve(_serve_config(
            window, max_batch, execution=execution,
            gateway_workers=gateway_workers,
        ))
        clusters[str(s)] = _run_gateway_phase(
            gateway, query_ranges, tiers, consumers, requests
        )
    payload["clusters"] = clusters

    if workers_compare and shard_counts:
        import os

        # 4 shards is the acceptance scale; fall back to the largest
        # benchmarked count when 4 is not in the sweep.
        s = 4 if 4 in shard_counts else max(shard_counts)
        phase: "Dict[str, object]" = {
            "shards": int(s),
            "cores": int(os.cpu_count() or 1),
        }
        for backend in ("threads", "processes"):
            service = PrivateRangeCountingService.from_values(
                values, k=devices, seed=seed, shards=s, partition=partition
            )
            # Cache off: replays bypass estimation entirely, and the
            # point of this phase is to time the estimation fan-out.
            gateway = service.serve(_serve_config(
                window, max_batch, enable_cache=False, execution=backend,
                gateway_workers=gateway_workers,
            ))
            phase[backend] = _run_gateway_phase(
                gateway, query_ranges, tiers, consumers, requests
            )
        thread_qps = float(phase["threads"]["throughput_qps"])  # type: ignore[index]
        process_qps = float(phase["processes"]["throughput_qps"])  # type: ignore[index]
        phase["speedup"] = (
            process_qps / thread_qps if thread_qps > 0 else None
        )
        checksum_threads = _backend_checksum(
            values, devices, s, seed, query_ranges, tiers, partition,
            "threads",
        )
        checksum_processes = _backend_checksum(
            values, devices, s, seed, query_ranges, tiers, partition,
            "processes",
        )
        phase["checksum_threads"] = checksum_threads
        phase["checksum_processes"] = checksum_processes
        phase["checksums_identical"] = checksum_threads == checksum_processes
        payload["workers"] = phase

    if routed:
        routed_ranges = make_routed_workload(values, ranges, seed)
        routed_tiers = tuple(ROUTED_TIERS)
        routed_phases: "Dict[str, object]" = {
            "tiers": [(spec.alpha, spec.delta) for spec in routed_tiers],
        }
        for s in (1,) + tuple(shard_counts):
            if s == 1:
                # The plain single-station broker: the exact baseline the
                # routing acceptance compares against.
                service = PrivateRangeCountingService.from_values(
                    values, k=devices, seed=seed
                )
            else:
                service = PrivateRangeCountingService.from_values(
                    values,
                    k=devices,
                    seed=seed,
                    shards=s,
                    partition="range-sharded",
                )
            gateway = service.serve(_serve_config(window, max_batch))
            phase = _run_gateway_phase(
                gateway, routed_ranges, routed_tiers, consumers, requests
            )
            phase.update(_pruning_stats(gateway.telemetry))
            routed_phases[str(s)] = phase
        if shard_counts:
            routed_phases["determinism_checksum"] = _backend_checksum(
                values,
                devices,
                max(shard_counts),
                seed,
                routed_ranges,
                routed_tiers,
                "range-sharded",
                "threads",
            )
        payload["routed"] = routed_phases

    if failover and shard_counts:
        s = max(shard_counts)
        telemetry = MetricsRegistry()
        monitor = ShardHealthMonitor(
            interval=heartbeat_interval,
            miss_threshold=2,
            telemetry=telemetry,
        )
        cluster = ClusterBroker.from_values(
            values,
            k=devices,
            shards=s,
            seed=seed,
            partition=partition,
            replicas=True,
            replica_confidence=replica_confidence,
            monitor=monitor,
        )
        # No answer cache in this phase: cache replays never touch the
        # shards, so a cached run could finish without a single fresh
        # release after the kill and the failover path would go untested.
        gateway = ServingGateway(
            broker=cluster,
            config=_serve_config(window, max_batch, enable_cache=False),
            telemetry=telemetry,
        )

        kill_marker: "Dict[str, float]" = {}

        def _killer() -> None:
            # Fire once roughly a quarter of the way through the run; the
            # trigger is the completion counters (fresh releases plus
            # cache replays), not wall time, so the fault always lands
            # mid-benchmark.
            target = max(1.0, 0.25 * requests)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                completed = (
                    telemetry.value("cluster.answers")
                    + telemetry.value("cluster.replays")
                )
                if completed >= target:
                    break
                time.sleep(0.001)
            kill_marker["at"] = time.perf_counter()
            monitor.kill_primary(0, detect=True)

        from repro.serving import Workload, run_closed_loop

        killer = threading.Thread(target=_killer, daemon=True)
        killer.start()
        workload = Workload(ranges=query_ranges, tiers=tiers)
        per_consumer = max(1, requests // consumers)
        post_kill_burst = 0
        with gateway:
            result = run_closed_loop(
                gateway,
                workload,
                consumers=consumers,
                requests_per_consumer=per_consumer,
            )
            killer.join(timeout=120.0)
            if telemetry.value("cluster.degraded_answers") == 0:
                # A short run can complete before detection lands.  The
                # kill has happened by now (killer joined), so drive a
                # small post-kill burst through the same gateway: the
                # degraded path is exercised at every scale.
                futures = []
                for i in range(max(8, requests // 10)):
                    low, high = query_ranges[i % len(query_ranges)]
                    spec = tiers[i % len(tiers)]
                    futures.append(
                        gateway.submit_range(
                            low, high, spec.alpha, spec.delta,
                            consumer="post-kill",
                        )
                    )
                for future in futures:
                    future.result()
                post_kill_burst = len(futures)
        phase = result.to_payload()
        phase["post_kill_burst"] = post_kill_burst

        latency: "Optional[float]" = None
        if cluster.first_degraded_wall is not None and "at" in kill_marker:
            latency = cluster.first_degraded_wall - kill_marker["at"]
        phase.update(
            shards=s,
            degraded_answers=telemetry.value("cluster.degraded_answers"),
            failovers=telemetry.value("cluster.failovers"),
            failover_events=len(monitor.events),
            healthy_shards_after=len(monitor.healthy_shards()),
            failover_latency_s=latency,
        )
        payload["failover"] = phase

    if shard_counts:
        payload["determinism_checksum"] = _backend_checksum(
            values,
            devices,
            max(shard_counts),
            seed,
            query_ranges,
            tiers,
            partition,
            "threads",
        )
    return payload
