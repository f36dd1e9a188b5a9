"""Load generation: drive the gateway with mixed multi-consumer traffic.

Two standard harness shapes:

* **closed loop** (:func:`run_closed_loop`) -- each simulated consumer
  keeps a bounded pipeline of outstanding requests and issues the next
  one as answers come back; throughput is demand-limited by the service.
* **open loop** (:func:`run_open_loop`) -- arrivals follow a fixed-rate
  timeline built deterministically on the
  :class:`~repro.iot.runtime.EventScheduler` and replayed in real time,
  regardless of completions; the service must keep up or shed.

Both return a :class:`LoadgenResult` carrying throughput, latency
percentiles, cache effectiveness, and -- because this is a *market* --
an accounting-drift audit: the observed ledger revenue and accountant ε
spend are compared against the exactly computable serial expectation for
the same request multiset.  Zero drift is the invariant every scaling
change must preserve.

:func:`write_bench_json` is the machine-readable benchmark writer used by
``benchmarks/`` (``BENCH_serving.json``, ``BENCH_scaling.json``) and the
``repro loadgen`` CLI, so the perf trajectory is trackable across PRs.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.query import AccuracySpec
from repro.errors import RateLimitedError, ServiceOverloadedError
from repro.iot.runtime import EventScheduler
from repro.serving.gateway import ServingGateway

__all__ = [
    "Workload",
    "LoadgenResult",
    "run_closed_loop",
    "run_open_loop",
    "expected_accounting",
    "write_bench_json",
]

PathLike = Union[str, pathlib.Path]

BENCH_FORMAT = "repro.bench"
BENCH_VERSION = 1


@dataclass(frozen=True)
class Workload:
    """A mixed-tier request population.

    ``ranges`` are the query intervals; ``tiers`` the ``(α, δ)`` products
    on offer.  Requests are assigned deterministically (round-robin over
    both), so the exact request multiset of any ``(consumers, requests)``
    run is reproducible -- which is what makes the accounting audit exact.
    """

    ranges: Sequence[Tuple[float, float]]
    tiers: Sequence[AccuracySpec] = field(
        default_factory=lambda: (AccuracySpec(alpha=0.1, delta=0.5),)
    )

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError("workload needs at least one range")
        if not self.tiers:
            raise ValueError("workload needs at least one tier")

    def request(self, index: int) -> Tuple[Tuple[float, float], AccuracySpec]:
        """The ``index``-th request of the deterministic request stream."""
        return (
            tuple(self.ranges[index % len(self.ranges)]),
            self.tiers[index % len(self.tiers)],
        )

    def plan(
        self, consumers: int, requests_per_consumer: int
    ) -> "List[List[Tuple[Tuple[float, float], AccuracySpec]]]":
        """Deterministic per-consumer request lists (interleaved stream)."""
        if consumers < 1 or requests_per_consumer < 1:
            raise ValueError("need at least one consumer and one request")
        return [
            [
                self.request(c + r * consumers)
                for r in range(requests_per_consumer)
            ]
            for c in range(consumers)
        ]


@dataclass(frozen=True)
class LoadgenResult:
    """Outcome of one load-generation run (JSON-ready via ``to_payload``)."""

    mode: str
    consumers: int
    requests: int
    completed: int
    failed: int
    shed_retries: int
    duration_s: float
    throughput_qps: float
    latency_p50_ms: float
    latency_p99_ms: float
    cache_hits: int
    cache_hit_rate: float
    epsilon_spent: float
    revenue: float
    expected_epsilon: float
    expected_revenue: float

    @property
    def epsilon_drift(self) -> float:
        """Observed minus expected ε spend (0 when accounting is exact)."""
        return self.epsilon_spent - self.expected_epsilon

    @property
    def revenue_drift(self) -> float:
        """Observed minus expected billed revenue."""
        return self.revenue - self.expected_revenue

    def to_payload(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "consumers": self.consumers,
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "shed_retries": self.shed_retries,
            "duration_s": self.duration_s,
            "throughput_qps": self.throughput_qps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "epsilon_spent": self.epsilon_spent,
            "revenue": self.revenue,
            "expected_epsilon": self.expected_epsilon,
            "expected_revenue": self.expected_revenue,
            "epsilon_drift": self.epsilon_drift,
            "revenue_drift": self.revenue_drift,
        }


# ----------------------------------------------------------------------
# accounting expectation
# ----------------------------------------------------------------------
def expected_accounting(
    gateway: ServingGateway,
    requests: "Sequence[Tuple[Tuple[float, float], AccuracySpec]]",
) -> Tuple[float, float]:
    """The exact serial-baseline books for this request multiset.

    Returns ``(expected_revenue, expected_epsilon)``.  Every request is
    billed at list price.  With the gateway cache enabled, only the first
    occurrence of each ``(range, tier)`` pair spends its plan's ε′ -- all
    repeats replay at zero through the broker's ``replay`` -- matching
    what serial calls through that cache would spend.  Requires a
    pre-collected store (the sampling rate must already support every
    tier), so plans are independent of request order.
    """
    broker = gateway.broker
    p = broker.base_station.sampling_rate
    # Range-aware brokers spend a *per-range* ε′ (pruned / exactly-covered
    # shards are free), exposed through the duck-typed ``plan_for_range``;
    # plain brokers spend per tier only.
    plan_for_range = getattr(broker.planner, "plan_for_range", None)
    revenue = 0.0
    epsilon = 0.0
    plans: Dict[Tuple[float, ...], float] = {}
    seen: set = set()
    for (low, high), spec in requests:
        tier = (spec.alpha, spec.delta)
        revenue += broker.pricing.price(*tier)
        key = (low, high) + tier
        if gateway.cache is not None and key in seen:
            continue
        seen.add(key)
        plan_key: "Tuple[float, ...]" = key if plan_for_range is not None else tier
        if plan_key not in plans:
            if plan_for_range is not None:
                plans[plan_key] = plan_for_range(low, high, spec, p).epsilon_prime
            else:
                plans[plan_key] = broker.planner.plan(spec, p).epsilon_prime
        epsilon += plans[plan_key]
    return revenue, epsilon


def _ensure_feasible(gateway: ServingGateway, workload: Workload) -> None:
    """Pre-collect so no mid-run top-up perturbs plans (or the audit)."""
    broker = gateway.broker
    rate = broker.base_station.sampling_rate
    target = rate
    for spec in workload.tiers:
        if rate > 0.0 and broker.planner.supports(spec, rate):
            continue
        target = max(target, broker.planner.required_rate(spec))
    if target > 0.0:
        broker.base_station.ensure_rate(target)


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
class _Tally:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.completed = 0
        self.failed = 0
        self.shed_retries = 0


def _submit_with_retry(
    gateway: ServingGateway,
    low: float,
    high: float,
    spec: AccuracySpec,
    consumer: str,
    tally: _Tally,
    max_retries: int = 10_000,
):
    """Submit, retrying briefly on shed (closed-loop consumers re-offer)."""
    for _ in range(max_retries):
        try:
            return gateway.submit_range(
                low, high, spec.alpha, spec.delta, consumer=consumer
            )
        except (ServiceOverloadedError, RateLimitedError):
            with tally.lock:
                tally.shed_retries += 1
            time.sleep(0.0005)
    raise ServiceOverloadedError("request kept being shed; gave up")


def _consumer_loop(
    gateway: ServingGateway,
    consumer: str,
    requests: "List[Tuple[Tuple[float, float], AccuracySpec]]",
    pipeline_depth: int,
    timeout: float,
    tally: _Tally,
) -> None:
    outstanding: "deque" = deque()

    def reap(future) -> None:
        try:
            future.result(timeout=timeout)
            with tally.lock:
                tally.completed += 1
        except Exception:
            gateway.telemetry.inc("loadgen.errors")
            with tally.lock:
                tally.failed += 1

    for (low, high), spec in requests:
        future = _submit_with_retry(gateway, low, high, spec, consumer, tally)
        outstanding.append(future)
        if len(outstanding) >= pipeline_depth:
            reap(outstanding.popleft())
    while outstanding:
        reap(outstanding.popleft())


def _result(
    gateway: ServingGateway,
    mode: str,
    consumers: int,
    total_requests: int,
    tally: _Tally,
    duration: float,
    expected: Tuple[float, float],
) -> LoadgenResult:
    latency = gateway.telemetry.histogram("gateway.latency_s")
    cache_hits = 0
    cache_hit_rate = 0.0
    if gateway.cache is not None:
        stats = gateway.cache.stats
        cache_hits, cache_hit_rate = stats.hits, stats.hit_rate
    broker = gateway.broker
    return LoadgenResult(
        mode=mode,
        consumers=consumers,
        requests=total_requests,
        completed=tally.completed,
        failed=tally.failed,
        shed_retries=tally.shed_retries,
        duration_s=duration,
        throughput_qps=tally.completed / duration if duration > 0 else 0.0,
        latency_p50_ms=latency.percentile(50.0) * 1e3,
        latency_p99_ms=latency.percentile(99.0) * 1e3,
        cache_hits=cache_hits,
        cache_hit_rate=cache_hit_rate,
        epsilon_spent=broker.accountant.spent(broker.dataset),
        revenue=broker.ledger.total_revenue(),
        expected_epsilon=expected[1],
        expected_revenue=expected[0],
    )


def run_closed_loop(
    gateway: ServingGateway,
    workload: Workload,
    consumers: int = 4,
    requests_per_consumer: int = 128,
    pipeline_depth: int = 16,
    timeout: float = 60.0,
) -> LoadgenResult:
    """Closed-loop run: ``consumers`` threads, bounded pipelines.

    The gateway must be otherwise idle and its ledger/accountant fresh for
    the drift audit to be meaningful (the expectation covers exactly this
    run's requests).  The store is pre-collected to support every tier.
    """
    plan = workload.plan(consumers, requests_per_consumer)
    _ensure_feasible(gateway, workload)
    flat = [request for consumer_plan in plan for request in consumer_plan]
    base_revenue = gateway.broker.ledger.total_revenue()
    base_epsilon = gateway.broker.accountant.spent(gateway.broker.dataset)
    expected = expected_accounting(gateway, flat)
    tally = _Tally()
    if not gateway.running:
        gateway.start()
    threads = [
        threading.Thread(
            target=_consumer_loop,
            args=(gateway, f"loadgen-{c}", plan[c], pipeline_depth, timeout,
                  tally),
            daemon=True,
        )
        for c in range(consumers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start
    return _result(
        gateway, "closed", consumers, len(flat), tally, duration,
        (expected[0] + base_revenue, expected[1] + base_epsilon),
    )


def run_open_loop(
    gateway: ServingGateway,
    workload: Workload,
    rate_qps: float,
    duration_s: float,
    consumers: int = 4,
    timeout: float = 60.0,
) -> LoadgenResult:
    """Open-loop run: fixed-rate arrivals, service keeps up or sheds.

    The arrival timeline is built on the deterministic
    :class:`~repro.iot.runtime.EventScheduler` (same-timestamp arrivals
    fire in FIFO order) and replayed against the wall clock.  Shed
    arrivals are *dropped*, not retried -- that is the open-loop contract
    -- so the drift audit covers only the requests actually admitted.
    """
    if rate_qps <= 0 or duration_s <= 0:
        raise ValueError("rate_qps and duration_s must be positive")
    _ensure_feasible(gateway, workload)
    base_revenue = gateway.broker.ledger.total_revenue()
    base_epsilon = gateway.broker.accountant.spent(gateway.broker.dataset)
    total = max(1, int(rate_qps * duration_s))
    tally = _Tally()
    futures: List = []
    admitted: "List[Tuple[Tuple[float, float], AccuracySpec]]" = []
    if not gateway.running:
        gateway.start()

    scheduler = EventScheduler()

    def make_arrival(index: int) -> Callable[[], None]:
        (low, high), spec = workload.request(index)
        consumer = f"loadgen-{index % consumers}"

        def arrive() -> None:
            try:
                future = gateway.submit_range(
                    low, high, spec.alpha, spec.delta, consumer=consumer
                )
            except (ServiceOverloadedError, RateLimitedError):
                with tally.lock:
                    tally.shed_retries += 1
                return
            futures.append(future)
            admitted.append(((low, high), spec))

        return arrive

    for index in range(total):
        scheduler.schedule(index / rate_qps, make_arrival(index))

    start = time.perf_counter()
    while len(scheduler):
        next_time = scheduler.next_fire_time()
        assert next_time is not None
        lag = next_time - (time.perf_counter() - start)
        if lag > 0:
            time.sleep(lag)
        scheduler.run(until=next_time)
    for future in futures:
        try:
            future.result(timeout=timeout)
            with tally.lock:
                tally.completed += 1
        except Exception:
            gateway.telemetry.inc("loadgen.errors")
            with tally.lock:
                tally.failed += 1
    duration = time.perf_counter() - start
    expected = expected_accounting(gateway, admitted)
    return _result(
        gateway, "open", consumers, total, tally, duration,
        (expected[0] + base_revenue, expected[1] + base_epsilon),
    )


# ----------------------------------------------------------------------
# machine-readable benchmark output
# ----------------------------------------------------------------------
def write_bench_json(
    path: PathLike, benchmark: str, results: Dict[str, object]
) -> None:
    """Write one benchmark's results as a versioned ``BENCH_*.json``.

    The envelope carries a format tag and version (like
    :mod:`repro.io`'s artifacts) so CI trend tooling can reject unknown
    payloads loudly instead of misreading them.
    """
    payload = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "benchmark": benchmark,
        "results": results,
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def read_bench_json(path: PathLike) -> Dict[str, object]:
    """Load and validate a ``BENCH_*.json`` written by this module."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{path}: expected format {BENCH_FORMAT!r}, "
            f"found {payload.get('format')!r}"
        )
    if payload.get("version") != BENCH_VERSION:
        raise ValueError(f"{path}: unsupported version {payload.get('version')!r}")
    return payload
