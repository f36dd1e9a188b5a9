"""The four workloads: seeded inputs, stack set-up, closed loops, gates.

Every workload is a closed loop driven by one generator thread: a
marketplace consumer waits for each priced answer before buying the
next, so the loop keeps a fixed number of purchases outstanding.  The
program under test only ever sees the generated requests; exact counts
come from the benchmark's own copy of the data.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.datasets import generate_citypulse
from repro.durability.journal import TradeJournal
from repro.serving.gateway import ServingConfig, ServingGateway
from repro.serving.loadgen import expected_accounting
from repro.streaming.runtime import (
    StreamingCluster,
    StreamingConfig,
    build_streaming_cluster,
)

import stats

#: Purchases kept outstanding by every gateway loop, and their consumers.
OUTSTANDING = 64
CONSUMERS = 4
#: Devices of the single-station and cluster stacks.
DEVICES = 64
DATASET = "ozone"
#: The mixed tiers of the single-station and cluster workloads.
TIERS = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.6),
    AccuracySpec(alpha=0.2, delta=0.5),
)
#: Stream tiers, all at or above the streaming floor (0.15, 0.5).
STREAM_TIERS = (
    AccuracySpec(alpha=0.15, delta=0.5),
    AccuracySpec(alpha=0.2, delta=0.4),
    AccuracySpec(alpha=0.3, delta=0.25),
)
#: Gateway requests sent during set-up to warm caches, plans and workers.
WARMUP_REQUESTS = 512
#: Confidence of the one-sided Clopper–Pearson test on the α-hit rate.
HIT_CONFIDENCE = 0.999
#: Relative tolerance of the books against their expectation.
BOOKS_RTOL = 1e-9


@dataclass(frozen=True)
class Params:
    """Sizes of one workload.  ``smoke`` runs shrink them for tests."""

    name: str
    kind: str  # "gateway" or "stream"
    #: Upper bound on the request rate the pre-generated inputs cover.
    max_qps: int = 0
    shards: int = 1
    hot_ranges: int = 0
    zipf_s: float = 0.0
    min_selectivity: float = 0.05
    max_selectivity: float = 0.9
    stream_shards: int = 4
    devices_per_shard: int = 8
    window_epochs: int = 4
    arrivals_per_epoch: int = 8192
    stream_ranges: int = 64


WORKLOADS: Dict[str, Params] = {
    "single_fresh": Params("single_fresh", "gateway", max_qps=25_000),
    "single_hot": Params("single_hot", "gateway", max_qps=60_000,
                         hot_ranges=256, zipf_s=1.1),
    "cluster_routed": Params("cluster_routed", "gateway", max_qps=12_000,
                             shards=4, min_selectivity=0.02,
                             max_selectivity=0.3),
    "stream_window": Params("stream_window", "stream"),
}


def smoke_params(params: Params) -> Params:
    """The same workload at a size a unit test can afford."""
    return replace(
        params,
        max_qps=min(params.max_qps, 4_000),
        arrivals_per_epoch=1024,
        stream_ranges=16,
    )


@functools.cache
def ozone_values() -> np.ndarray:
    """The 17,568-record CityPulse ozone surrogate (built once, read-only)."""
    values = generate_citypulse().values(DATASET)
    values.setflags(write=False)
    return values


# ----------------------------------------------------------------------
# gateway workloads: inputs
# ----------------------------------------------------------------------
@dataclass
class Requests:
    """A pre-generated request stream (parallel arrays)."""

    lows: np.ndarray
    highs: np.ndarray
    tiers: np.ndarray
    truths: np.ndarray

    def __len__(self) -> int:
        return len(self.lows)

    def items(self, count: int) -> "List[Tuple[Tuple[float, float], AccuracySpec]]":
        return [
            ((float(self.lows[i]), float(self.highs[i])),
             TIERS[int(self.tiers[i])])
            for i in range(count)
        ]


def quantile_ranges(values: np.ndarray, count: int, rng: np.random.Generator,
                    min_sel: float, max_sel: float
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``repro.analysis.metrics.make_workload`` ranges.

    Draws the same width/start doubles in the same order and takes the
    same interpolated quantiles, so for one seed the ranges equal
    ``make_workload``'s bit for bit (the tests check this).
    """
    u = rng.random(2 * count)
    width = min_sel + (max_sel - min_sel) * u[0::2]
    start = (1.0 - width) * u[1::2]
    ordered = np.sort(values)
    return np.quantile(ordered, start), np.quantile(ordered, start + width)


def exact_counts(values: np.ndarray, lows: np.ndarray,
                 highs: np.ndarray) -> np.ndarray:
    ordered = np.sort(values)
    return (np.searchsorted(ordered, highs, side="right")
            - np.searchsorted(ordered, lows, side="left"))


def _distinct(lows: np.ndarray, highs: np.ndarray,
              tiers: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of every (range, tier), in order."""
    keys = np.stack([lows, highs, tiers.astype(np.float64)], axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.sort(first)


def gateway_inputs(params: Params, seed: int, seconds: float
                   ) -> Tuple[Requests, Requests]:
    """``(warm-up, timed)`` request streams for a gateway workload."""
    values = ozone_values()
    rng = np.random.default_rng(seed)
    count = int(params.max_qps * seconds) + 1
    if params.hot_ranges:
        lows, highs = quantile_ranges(values, params.hot_ranges, rng,
                                      params.min_selectivity,
                                      params.max_selectivity)
        keys = params.hot_ranges * len(TIERS)
        weights = 1.0 / np.arange(1, keys + 1) ** params.zipf_s
        order = rng.permutation(keys)
        picks = order[rng.choice(keys, size=count, p=weights / weights.sum())]
        lows, highs = lows[picks // len(TIERS)], highs[picks // len(TIERS)]
        tiers = picks % len(TIERS)
    else:
        lows, highs = quantile_ranges(values, count, rng,
                                      params.min_selectivity,
                                      params.max_selectivity)
        tiers = rng.integers(0, len(TIERS), size=count)
        keep = _distinct(lows, highs, tiers)
        lows, highs, tiers = lows[keep], highs[keep], tiers[keep]
    timed = Requests(lows, highs, tiers, exact_counts(values, lows, highs))
    # Warm-up ranges come from their own stream and are wider than any
    # timed range, so they can never share a cache key with one.
    warm_rng = np.random.default_rng([seed, 1])
    warm_lows, warm_highs = quantile_ranges(
        values, WARMUP_REQUESTS, warm_rng, 0.91, 0.99)
    warm = Requests(warm_lows, warm_highs,
                    warm_rng.integers(0, len(TIERS), size=WARMUP_REQUESTS),
                    exact_counts(values, warm_lows, warm_highs))
    return warm, timed


# ----------------------------------------------------------------------
# gateway workloads: the closed loop
# ----------------------------------------------------------------------
class LoopRecord:
    """What one closed loop submitted and got back, one slot per request.

    Answers are kept as plain numbers in preallocated arrays, not as
    answer objects: the benchmark must not add to the garbage collector's
    work while it times the program.
    """

    PENDING, ANSWERED, FAILED = 0, 1, 2

    def __init__(self, count: int) -> None:
        self.submitted = 0
        self.submit_t = np.zeros(count)
        self.done_t = np.zeros(count)
        self.value = np.zeros(count)
        self.raw = np.zeros(count)
        self.pruned = np.zeros(count, dtype=np.int16)
        self.status = np.zeros(count, dtype=np.int8)
        self.errors: Dict[int, str] = {}
        self.start = 0.0
        self.end = 0.0

    def answered(self) -> np.ndarray:
        """Indices of the requests that were answered."""
        return np.flatnonzero(self.status[:self.submitted] == self.ANSWERED)


def closed_loop(gateway: ServingGateway,
                make: Callable[[int], Tuple[RangeQuery, AccuracySpec, str]],
                count: int, seconds: Optional[float],
                request_of: Optional[Dict[int, int]] = None,
                first_index: int = 0,
                outstanding: int = OUTSTANDING) -> LoopRecord:
    """Submit up to ``count`` requests, ``outstanding`` at a time.

    Stops submitting after ``seconds`` (None: after ``count``), then
    waits for every submitted request to resolve.  Completion times are
    taken in the future's done-callback.
    """
    record = LoopRecord(count)
    slots = threading.Semaphore(outstanding)

    def done(future: Any, i: int) -> None:
        record.done_t[i] = time.perf_counter()
        try:
            answer = future.result()
        except Exception as exc:  # a failed purchase is counted, not raised
            record.errors[i] = f"{type(exc).__name__}: {exc}"
            record.status[i] = LoopRecord.FAILED
        else:
            record.value[i] = answer.value
            record.raw[i] = answer.raw_value
            record.pruned[i] = len(getattr(answer, "pruned_shards", ()))
            record.status[i] = LoopRecord.ANSWERED
        slots.release()

    record.start = time.perf_counter()
    deadline = None if seconds is None else record.start + seconds
    i = 0
    while i < count:
        slots.acquire()
        if deadline is not None and time.perf_counter() >= deadline:
            slots.release()
            break
        query, spec, consumer = make(i)
        if request_of is not None:
            request_of[id(query)] = first_index + i + 1
        record.submit_t[i] = time.perf_counter()
        record.submitted = i + 1
        try:
            future = gateway.submit(query, spec, consumer)
        except Exception as exc:  # shed or refused at submit
            record.errors[i] = f"{type(exc).__name__}: {exc}"
            record.status[i] = LoopRecord.FAILED
            record.done_t[i] = time.perf_counter()
            slots.release()
        else:
            future.add_done_callback(lambda f, i=i: done(f, i))
        i += 1
    for _ in range(outstanding):
        if not slots.acquire(timeout=120.0):
            raise RuntimeError("requests did not resolve within 120 s")
    record.end = time.perf_counter()
    return record


def request_maker(requests: Requests
                  ) -> Callable[[int], Tuple[RangeQuery, AccuracySpec, str]]:
    """Request ``i``: a fresh query object, its tier, its consumer."""
    lows, highs, tiers = requests.lows, requests.highs, requests.tiers

    def make(i: int) -> Tuple[RangeQuery, AccuracySpec, str]:
        query = RangeQuery(low=float(lows[i]), high=float(highs[i]),
                           dataset=DATASET)
        return query, TIERS[int(tiers[i])], f"c{i % CONSUMERS}"

    return make


# ----------------------------------------------------------------------
# gateway workloads: the stack
# ----------------------------------------------------------------------
class GatewayStack:
    """Broker (single or cluster) + file journal + gateway, warmed up."""

    def __init__(self, params: Params, seed: int, work_dir: Path,
                 warm: Requests,
                 request_of: Optional[Dict[int, int]] = None) -> None:
        self.params = params
        values = ozone_values()
        service = PrivateRangeCountingService.from_values(
            values, k=DEVICES, dataset=DATASET, seed=seed,
            shards=params.shards,
            partition="range-sharded" if params.shards > 1 else "even",
        )
        self.broker = service.broker
        self.network = service.network
        target = max(self.broker.planner.required_rate(s) for s in TIERS)
        self.broker.base_station.ensure_rate(target)
        if params.shards > 1:
            self.broker.use_processes(workers=min(os.cpu_count() or 1, 4))
        work_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = work_dir / f"journal-{os.getpid()}-{id(self)}.jsonl"
        self.journal = TradeJournal(path=self.journal_path)
        self.broker.journal = self.journal
        self.gateway = ServingGateway(self.broker, ServingConfig())
        self.gateway.start()
        self.warm = warm
        self.warm_record = closed_loop(
            self.gateway, request_maker(warm), len(warm), None,
            request_of=request_of, first_index=-len(warm) - 1,
        )

    def books(self) -> Tuple[float, float]:
        return (self.broker.ledger.total_revenue(),
                self.broker.accountant.spent(DATASET))

    def close(self) -> None:
        self.gateway.stop()
        if self.params.shards > 1:
            self.broker.use_threads()
        self.journal.close()
        self.journal_path.unlink(missing_ok=True)


def gate_gateway(stack: GatewayStack, timed: Requests,
                 record: LoopRecord) -> List[str]:
    """Correctness gate of a gateway run; returns the violations."""
    problems: List[str] = []
    delivered: "List[Tuple[Tuple[float, float], AccuracySpec]]" = []
    for label, rec, requests in (("warm-up", stack.warm_record, stack.warm),
                                 ("timed", record, timed)):
        pending = int(np.sum(rec.status[:rec.submitted] == LoopRecord.PENDING))
        if pending:
            problems.append(f"{pending} {label} requests never resolved")
        items = requests.items(rec.submitted)
        delivered += [items[i] for i in rec.answered()]
    revenue, epsilon = expected_accounting(stack.gateway, delivered)
    live_revenue, live_epsilon = stack.books()
    for name, live, want in (("revenue", live_revenue, revenue),
                             ("epsilon", live_epsilon, epsilon)):
        if abs(live - want) > BOOKS_RTOL * max(1.0, abs(want)):
            problems.append(f"{name} drift: books {live!r}, expected {want!r}")
    problems.extend(alpha_gate(gateway_releases(stack, timed, record)))
    return problems


# ----------------------------------------------------------------------
# accuracy: the (α, δ) contract of Def 2.2
# ----------------------------------------------------------------------
@dataclass
class Releases:
    """Delivered answers as parallel arrays."""

    lows: np.ndarray
    highs: np.ndarray
    alphas: np.ndarray
    deltas: np.ndarray
    values: np.ndarray
    raws: np.ndarray
    truths: np.ndarray
    #: records the answer is over (the window size for streams)
    sizes: np.ndarray

    def hits(self) -> np.ndarray:
        """Whether each released value is within α·n of the exact count."""
        return np.abs(self.values - self.truths) <= self.alphas * self.sizes

    def distinct(self) -> np.ndarray:
        """Index of the first delivery of every distinct release.

        A replay hands over an earlier release again (same range, tier
        and noisy raw value), so it is not another trial of the contract.
        """
        keys = np.stack([self.lows, self.highs, self.alphas, self.deltas,
                         self.raws], axis=1)
        return np.unique(keys, axis=0, return_index=True)[1]

    def distinct_hits(self) -> np.ndarray:
        return self.hits()[self.distinct()]


def gateway_releases(stack: GatewayStack, timed: Requests,
                     record: LoopRecord) -> Releases:
    idx = record.answered()
    tiers = timed.tiers[idx]
    return Releases(
        lows=timed.lows[idx], highs=timed.highs[idx],
        alphas=np.asarray([t.alpha for t in TIERS])[tiers],
        deltas=np.asarray([t.delta for t in TIERS])[tiers],
        values=record.value[idx], raws=record.raw[idx],
        truths=timed.truths[idx].astype(np.float64),
        sizes=np.full(len(idx), float(stack.broker.base_station.n)),
    )


def alpha_gate(releases: Releases) -> List[str]:
    """The hit rate must not be provably below the mean billed δ.

    Replays repeat an earlier release, so only distinct releases (one per
    query and noise draw) count as independent trials.
    """
    if len(releases.values) == 0:
        return ["no answers delivered"]
    hits = releases.distinct_hits()
    mean_delta = float(np.mean(releases.deltas))
    upper = stats.clopper_pearson_upper(int(np.sum(hits)), len(hits),
                                        HIT_CONFIDENCE)
    if upper < mean_delta:
        return [
            f"alpha hit rate {int(np.sum(hits))}/{len(hits)}: upper bound "
            f"{upper:.4f} is below the mean billed delta {mean_delta:.4f}"
        ]
    return []


# ----------------------------------------------------------------------
# stream workload
# ----------------------------------------------------------------------
def epoch_arrivals(seed: int, epoch: int, count: int) -> np.ndarray:
    """One epoch's seeded sensor burst: a drifting mean over [0, 100]."""
    rng = np.random.default_rng([seed, 2, epoch])
    center = 50.0 + 15.0 * np.sin(2.0 * np.pi * epoch / 12.0)
    return np.clip(rng.normal(center, 18.0, size=count), 0.0, 100.0)


def stream_ranges(seed: int, count: int) -> List[Tuple[float, float]]:
    rng = np.random.default_rng([seed, 3])
    lows = rng.uniform(0.0, 90.0, size=count)
    widths = rng.uniform(5.0, 40.0, size=count)
    return [(float(lo), float(min(lo + w, 100.0)))
            for lo, w in zip(lows, widths)]


def stream_tiers(seed: int, epoch: int, count: int) -> np.ndarray:
    """Seeded tier index of every range in one epoch."""
    return np.random.default_rng([seed, 4, epoch]).integers(
        0, len(STREAM_TIERS), size=count)


class StreamRecord:
    """Per-request outcome of the stream loop, as parallel number lists."""

    FIELDS = ("done_t", "latency_s", "value", "raw", "truth", "size",
              "epoch", "pass_id", "range_id", "tier", "epsilon")

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, [])
        self.errors: List[str] = []
        self.submitted = 0
        self.write_s: List[float] = []
        self.epochs = 0
        self.start = 0.0
        self.end = 0.0

    @property
    def delivered(self) -> int:
        return len(self.value)

    def releases(self, ranges: Sequence[Tuple[float, float]]) -> Releases:
        range_id = np.asarray(self.range_id, dtype=np.int64)
        tiers = np.asarray(self.tier, dtype=np.int64)
        bounds = np.asarray(ranges, dtype=np.float64).reshape(-1, 2)
        return Releases(
            lows=bounds[range_id, 0], highs=bounds[range_id, 1],
            alphas=np.asarray([t.alpha for t in STREAM_TIERS])[tiers],
            deltas=np.asarray([t.delta for t in STREAM_TIERS])[tiers],
            values=np.asarray(self.value), raws=np.asarray(self.raw),
            truths=np.asarray(self.truth, dtype=np.float64),
            sizes=np.asarray(self.size, dtype=np.float64),
        )


class StreamStack:
    """Streaming cluster + gateway, with the window filled in set-up."""

    def __init__(self, params: Params, seed: int,
                 request_of: Optional[Dict[int, int]] = None) -> None:
        self.params = params
        self.seed = seed
        self.cluster: StreamingCluster = build_streaming_cluster(StreamingConfig(
            shards=params.stream_shards,
            devices_per_shard=params.devices_per_shard,
            window_epochs=params.window_epochs,
            seed=seed,
            nominal_records=params.arrivals_per_epoch * params.window_epochs,
        ))
        self.broker = self.cluster.broker
        self.gateway = ServingGateway(self.broker, ServingConfig(),
                                      telemetry=self.cluster.telemetry)
        self.gateway.start()
        self.ranges = stream_ranges(seed, params.stream_ranges)
        self.window: List[np.ndarray] = []
        self.epoch = 0
        self.request_of = request_of
        self.warm_record = StreamRecord()
        # Fill the window, serving one epoch of traffic on the last fill.
        for _ in range(params.window_epochs - 1):
            self.write(StreamRecord())
        self.run(self.warm_record, seconds=None, epochs=1)

    def write(self, record: StreamRecord) -> None:
        values = epoch_arrivals(self.seed, self.epoch,
                                self.params.arrivals_per_epoch)
        stamps = self.epoch + np.arange(len(values)) / len(values)
        start = time.perf_counter()
        self.cluster.ingest(values, stamps)
        self.cluster.roll()
        record.write_s.append(time.perf_counter() - start)
        self.window = (self.window + [values])[-self.params.window_epochs:]
        self.epoch += 1

    def run(self, record: StreamRecord, seconds: Optional[float],
            epochs: Optional[int] = None) -> StreamRecord:
        """Roll an epoch, then serve every range twice, until time is up."""
        record.start = time.perf_counter()
        deadline = None if seconds is None else record.start + seconds
        bounds = np.asarray(self.ranges)
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if epochs is not None and record.epochs >= epochs:
                break
            self.write(record)
            record.epochs += 1
            window = np.concatenate(self.window)
            truths = exact_counts(window, bounds[:, 0], bounds[:, 1])
            tiers = stream_tiers(self.seed, self.epoch - 1, len(self.ranges))
            for pass_id in range(2):
                self._serve_pass(record, pass_id, truths, tiers, len(window))
        record.end = time.perf_counter()
        return record

    def _serve_pass(self, record: StreamRecord, pass_id: int,
                    truths: np.ndarray, tiers: np.ndarray,
                    window_n: int) -> None:
        """Submit every range at once from one consumer; wait for all."""
        consumer = f"s{pass_id}"
        epoch = self.epoch - 1
        pending = threading.Semaphore(0)
        lock = threading.Lock()

        def done(future: Any, submitted: float, r: int) -> None:
            now = time.perf_counter()
            try:
                answer = future.result()
            except Exception as exc:  # a failed purchase is counted
                with lock:
                    record.errors.append(f"{type(exc).__name__}: {exc}")
            else:
                with lock:
                    for name, value in (
                            ("done_t", now), ("latency_s", now - submitted),
                            ("value", answer.value), ("raw", answer.raw_value),
                            ("truth", int(truths[r])), ("size", window_n),
                            ("epoch", epoch), ("pass_id", pass_id),
                            ("range_id", r), ("tier", int(tiers[r])),
                            ("epsilon", answer.plan.epsilon_prime)):
                        getattr(record, name).append(value)
            pending.release()

        for r, (low, high) in enumerate(self.ranges):
            query = RangeQuery(low=low, high=high, dataset=self.broker.dataset)
            record.submitted += 1
            if self.request_of is not None:
                self.request_of[id(query)] = record.submitted
            submitted = time.perf_counter()
            try:
                future = self.gateway.submit(
                    query, STREAM_TIERS[int(tiers[r])], consumer)
            except Exception as exc:  # shed or refused at submit
                record.errors.append(f"{type(exc).__name__}: {exc}")
                pending.release()
                continue
            future.add_done_callback(
                lambda f, s=submitted, r=r: done(f, s, r))
        for _ in self.ranges:
            if not pending.acquire(timeout=120.0):
                raise RuntimeError("requests did not resolve within 120 s")

    def close(self) -> None:
        self.gateway.stop()


def gate_stream(stack: StreamStack, record: StreamRecord) -> List[str]:
    """Correctness gate of the stream run; returns the violations."""
    problems: List[str] = []
    broker = stack.broker
    dataset = broker.dataset
    records = (stack.warm_record, record)
    submitted = sum(r.submitted for r in records)
    resolved = sum(r.delivered + len(r.errors) for r in records)
    if resolved != submitted:
        problems.append(f"{submitted - resolved} requests never resolved")
    # Books: ledger, lifetime accountant, per-epoch ledgers vs the window
    # log, and all of them against what the answers say was sold.
    ledger_eps = float(sum(t.epsilon_prime for t in broker.ledger.transactions))
    expected_eps = float(sum(
        eps for r in records for eps, p in zip(r.epsilon, r.pass_id) if p == 0))
    expected_rev = float(sum(
        broker.quote(STREAM_TIERS[t]) for r in records for t in r.tier))
    checks = (
        ("accountant vs ledger epsilon", broker.accountant.spent(dataset),
         ledger_eps),
        ("ledger epsilon vs releases", ledger_eps, expected_eps),
        ("revenue", broker.ledger.total_revenue(), expected_rev),
    )
    for name, live, want in checks:
        if abs(live - want) > BOOKS_RTOL * max(1.0, abs(want)):
            problems.append(f"{name} drift: {live!r} vs {want!r}")
    live_epochs = set(stack.cluster.station.snapshot().live_epochs)
    journaled = {e: 0.0 for e in live_epochs}
    for entry in stack.cluster.window_log.entries():
        if entry.kind == "charge":
            for e in entry.data["epochs"]:
                if int(e) in journaled:
                    journaled[int(e)] += float(entry.data["epsilon"])
    for e in live_epochs:
        spent = broker.epoch_accountant.spent(dataset, e)
        if abs(spent - journaled[e]) > BOOKS_RTOL * max(1.0, spent):
            problems.append(f"epoch {e} ledger drift: {spent!r} vs "
                            f"{journaled[e]!r}")
    # No answer replayed across a roll: a raw noisy value seen in an
    # earlier epoch for the same (range, tier) can only be a stale replay.
    first_epoch: Dict[Tuple[int, int, float], int] = {}
    stale = 0
    rows = sorted(
        (epoch, r_id, tier, raw)
        for r in records
        for epoch, r_id, tier, raw in zip(r.epoch, r.range_id, r.tier, r.raw))
    for epoch, r_id, tier, raw in rows:
        if first_epoch.setdefault((r_id, tier, raw), epoch) != epoch:
            stale += 1
    if stale:
        problems.append(f"{stale} answers replayed across a roll")
    if stack.cluster.station.snapshot().record_count != sum(
            len(v) for v in stack.window):
        problems.append("window record count differs from the arrivals")
    problems.extend(alpha_gate(record.releases(stack.ranges)))
    return problems
