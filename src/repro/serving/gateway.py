"""The serving gateway: queue, coalesce, dispatch through the batch path.

:class:`ServingGateway` is the traffic-bearing front door to a
:class:`~repro.core.broker.DataBroker`.  Concurrent consumers submit
range-counting requests and get back futures; a worker pool drains the
bounded request queue, coalesces whatever arrives inside a configurable
batching window, and dispatches each coalesced batch through the broker's
vectorized ``answer_batch`` -- so the 30x batched trading path is reached
by *uncoordinated* callers, not only by one caller hand-assembling a
batch.

Semantics, relative to direct broker calls:

* **Same books.** Every request is separately noised and separately
  charged; ledger entries, accountant history, and policy counters are
  entry-for-entry what the equivalent serial calls would write.  With the
  cache disabled, a single consumer's requests dispatched in one batch
  are *bit-identical* to ``answer_many`` over the same ranges (same
  generator stream, same order).
* **Reuse is free.** With the privacy-aware answer cache enabled, a
  request identical to an already-released one (same dataset, range,
  tier, and sample-store version) replays the released value: billed at
  list price, **ε′ = 0**, nothing charged to the accountant.  Duplicate
  requests coalesced into the same window are deduplicated the same way
  -- one fresh release, the rest replays.
* **Load is shed early.** Admission (rate limits, deposit quotas) and the
  bounded queue refuse work *before* any data is touched; refusals never
  bill and never spend ε.

Thread model: ``submit`` may be called from any number of threads.
Workers coalesce independently but dispatch under one lock -- the broker
mutates shared state (RNG stream, ledger, accountant), so dispatch is
serialized by design; concurrency buys queueing/coalescing overlap and
keeps callers unblocked, while throughput comes from batch width.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.core.broker import DataBroker
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.errors import (
    BrownoutShedError,
    DeadlineExceededError,
    GatewayClosedError,
    ServiceOverloadedError,
)
from repro.resilience.brownout import BrownoutController, OverloadSignals
from repro.resilience.deadline import Deadline, deadline_scope
from repro.serving.admission import AdmissionController
from repro.serving.answer_cache import AnswerCache
from repro.serving.telemetry import MetricsRegistry

__all__ = ["ServingConfig", "ServingGateway"]

#: Window (dispatched requests) over which the deadline-miss rate that
#: feeds the brownout ladder is measured.
_MISS_RATE_WINDOW = 128


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of the gateway.

    Parameters
    ----------
    batch_window:
        Seconds a worker waits, after picking up the first request, for
        more requests to coalesce into the same broker batch.  The
        fundamental latency/throughput dial: larger windows mean wider
        batches (more amortization) but add up to ``batch_window`` of
        queueing latency per request.
    max_batch:
        Hard cap on coalesced batch width; a full batch dispatches
        immediately without waiting out the window.
    queue_depth:
        Bound on queued (admitted, undispatched) requests; a full queue
        sheds with :class:`~repro.errors.ServiceOverloadedError`.
    workers:
        Worker threads draining the queue.  Dispatch itself is serialized
        (the broker is stateful); extra workers only overlap coalescing
        with dispatch, so 1-2 is almost always right.
    enable_cache:
        Whether to attach a privacy-aware :class:`AnswerCache` (when no
        explicit cache instance is handed to the gateway).
    cache_capacity:
        Capacity of that auto-created cache.
    request_ttl:
        Per-request queueing deadline in seconds (``None`` disables).  A
        request that has sat in the queue longer than this when its batch
        dispatches fails fast with
        :class:`~repro.errors.DeadlineExceededError` instead of riding a
        late batch -- before any data is touched, so it is never billed
        and never spends ε.
    execution:
        ``"threads"`` (default) keeps estimation in-process -- every
        existing entry point is bit-identical to before this knob
        existed.  ``"processes"`` asks the gateway to attach the
        :mod:`repro.workers` process backend to a broker that supports
        it (``use_processes``): estimation fans out to one worker
        process per shard over a shared-memory sample store, while noise
        and accounting stay in this process, so answers and books remain
        bit-identical for the same seeds.  See ``docs/WORKERS.md``.
    """

    batch_window: float = 0.002
    max_batch: int = 128
    queue_depth: int = 1024
    workers: int = 1
    enable_cache: bool = True
    cache_capacity: int = 4096
    request_ttl: Optional[float] = None
    execution: str = "threads"

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        if self.request_ttl is not None and self.request_ttl <= 0:
            raise ValueError("request_ttl must be positive (or None)")
        if self.execution not in ("threads", "processes"):
            raise ValueError(
                "execution must be 'threads' or 'processes', "
                f"got {self.execution!r}"
            )


class _Request:
    __slots__ = (
        "query",
        "spec",
        "consumer",
        "future",
        "enqueued_at",
        "deadline",
        "admitted_price",
    )

    def __init__(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str,
        admitted_price: float = 0.0,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.query = query
        self.spec = spec
        self.consumer = consumer
        self.future: "Future[PrivateAnswer]" = Future()
        self.enqueued_at = time.perf_counter()
        #: the quote reserved with admission at submit time; released
        #: verbatim on finish/fail so a brownout-repriced answer can never
        #: strand or over-release a reservation.
        self.admitted_price = admitted_price
        self.deadline = deadline


#: Queue sentinel telling a worker to exit.
_STOP = object()

#: Queue sentinel simulating a worker crash: the receiving worker exits
#: immediately (without closing the gateway), leaving queued requests for
#: a later :meth:`ServingGateway.spawn_worker` or for ``stop()``'s drain.
_KILL = object()


class ServingGateway:
    """Concurrent, coalescing, cached, admission-controlled query server.

    Parameters
    ----------
    broker:
        The answering :class:`~repro.core.broker.DataBroker`.
    config:
        Gateway tuning; defaults to :class:`ServingConfig()`.
    telemetry:
        Metrics registry; a fresh one is created when omitted and is also
        attached to the broker (if the broker has none) so ``broker.*``
        stage timers land in the same snapshot.
    cache:
        Privacy-aware answer cache; auto-created per
        ``config.enable_cache`` when omitted.  The cache is bound to the
        broker's base station so store commits purge stale entries.
    admission:
        Optional :class:`AdmissionController`; its ledger defaults to the
        broker's billing ledger.
    brownout:
        Optional :class:`~repro.resilience.brownout.BrownoutController`.
        When present the gateway feeds it overload signals at every
        dispatch and applies its ladder decisions to fresh requests;
        omitted means no brownout (current behaviour, bit-identical).
    clock:
        Monotonic-seconds callable used for request deadlines; defaults
        to ``time.monotonic``.  Deterministic drills inject a manual
        clock so deadline misses land identically in same-seed reruns.
    """

    def __init__(
        self,
        broker: DataBroker,
        config: Optional[ServingConfig] = None,
        telemetry: Optional[MetricsRegistry] = None,
        cache: Optional[AnswerCache] = None,
        admission: Optional[AdmissionController] = None,
        brownout: Optional[BrownoutController] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.broker = broker
        self.config = config or ServingConfig()
        self.brownout = brownout
        self.clock: Callable[[], float] = clock or time.monotonic
        #: rolling outcome of recent dispatched requests (True = expired
        #: in queue); guarded by the dispatch lock.
        self._miss_window: Deque[bool] = deque(maxlen=_MISS_RATE_WINDOW)
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        if broker.telemetry is None:
            broker.telemetry = self.telemetry
        if cache is None and self.config.enable_cache:
            cache = AnswerCache(
                capacity=self.config.cache_capacity, telemetry=self.telemetry
            )
        self.cache = cache
        if self.cache is not None:
            if self.cache.telemetry is None:
                self.cache.telemetry = self.telemetry
            self.cache.bind_station(broker.base_station)
        self.admission = admission
        if self.admission is not None and self.admission.ledger is None:
            self.admission.ledger = broker.ledger
        # execution="processes": attach the repro.workers backend to a
        # broker that supports it.  The gateway owns the attachment (and
        # detaches on stop, releasing workers + shared memory) only when
        # it performed it; a broker already in process mode is left alone.
        self._owns_process_backend = False
        if self.config.execution == "processes":
            use_processes = getattr(broker, "use_processes", None)
            if use_processes is None:
                raise ValueError(
                    f"broker {type(broker).__name__} has no process "
                    "execution backend; use execution='threads'"
                )
            if getattr(broker, "execution", "threads") != "processes":
                use_processes()
                self._owns_process_backend = True
        self._queue: "queue.Queue[object]" = queue.Queue(
            maxsize=self.config.queue_depth
        )
        self._dispatch_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._threads: List[threading.Thread] = []  # guarded-by: _state_lock
        self._started = False  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _state_lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingGateway":
        """Spawn the worker pool.  Requests may be submitted before this;
        they sit in the queue (in FIFO order) until workers come up."""
        with self._state_lock:
            if self._closed:
                raise GatewayClosedError("gateway already stopped")
            if self._started:
                return self
            self._started = True
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-serve-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the queue, settle every pending future, stop the workers.

        Idempotent.  Requests submitted after ``stop`` raise
        :class:`~repro.errors.GatewayClosedError`.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(_STOP)
        for thread in threads:
            thread.join()
        # Never-started gateways (or anything racing past the sentinels)
        # still drain synchronously so no future is left dangling.
        self._drain_remaining()
        if self._owns_process_backend:
            self._owns_process_backend = False
            self.broker.use_threads()  # type: ignore[attr-defined]

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        with self._state_lock:
            return self._started and not self._closed

    @property
    def alive_workers(self) -> int:
        """Worker threads currently running (kills and exits excluded)."""
        with self._state_lock:
            return sum(1 for thread in self._threads if thread.is_alive())

    def pending(self) -> int:
        """Requests currently queued (admitted, not yet dispatched)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # fault injection / recovery hooks (used by repro.chaos)
    # ------------------------------------------------------------------
    def kill_worker(self) -> None:
        """Crash one worker: it finishes the batch in hand, then exits.

        The gateway stays open -- queued and later-submitted requests wait
        (FIFO) until :meth:`spawn_worker` brings a replacement up, or
        until ``stop()`` drains them synchronously.  Counted under
        ``gateway.worker_kills``.
        """
        with self._state_lock:
            if self._closed:
                raise GatewayClosedError("gateway already stopped")
            if not self._started:
                raise GatewayClosedError("gateway not started")
        self._queue.put(_KILL)
        self.telemetry.inc("gateway.worker_kills")

    def spawn_worker(self) -> None:
        """Start one replacement worker (restart after :meth:`kill_worker`).

        Counted under ``gateway.worker_restarts``.
        """
        with self._state_lock:
            if self._closed:
                raise GatewayClosedError("gateway already stopped")
            self._started = True
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-serve-r{len(self._threads)}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self.telemetry.inc("gateway.worker_restarts")

    @contextmanager
    def quiesce(self) -> "Iterator[None]":
        """Hold the dispatch lock: no batch is mid-dispatch while inside.

        The consistent boundary for crash injection and recovery -- the
        broker's journal, ledger, and accountant all agree here, because
        every trade's journal-append and charge happen under this lock.
        """
        with self._dispatch_lock:
            yield

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> "Future[PrivateAnswer]":
        """Enqueue one request; returns a future for its answer.

        Raises (sheds) without queuing anything:
        :class:`~repro.errors.GatewayClosedError` after ``stop``;
        :class:`~repro.errors.RateLimitedError` /
        :class:`~repro.errors.QuotaExceededError` from admission;
        :class:`~repro.errors.ServiceOverloadedError` when the queue is
        full.
        """
        # Benign race: a lock-free fast-path read.  A submit racing stop()
        # is caught anyway -- stop() drains the queue and fails leftovers.
        if self._closed:  # repro-lint: disable=RL003
            raise GatewayClosedError("gateway is stopped")
        if self.brownout is not None:
            retry_after = self.brownout.maybe_shed()
            if retry_after is not None:
                self.telemetry.inc("gateway.brownout.shed")
                raise BrownoutShedError(
                    "gateway is at the shed brownout rung; retry after "
                    f"{retry_after:.3f}s",
                    retry_after=retry_after,
                )
        price = self.broker.quote(spec)
        if self.admission is not None:
            self.admission.admit(consumer, price)
        deadline: Optional[Deadline] = None
        if self.config.request_ttl is not None:
            deadline = Deadline.after(self.config.request_ttl, clock=self.clock)
        request = _Request(
            query, spec, consumer, admitted_price=price, deadline=deadline
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            if self.admission is not None:
                self.admission.release(consumer, price)
            self.telemetry.inc("gateway.shed")
            raise ServiceOverloadedError(
                f"request queue is full ({self.config.queue_depth} deep); "
                "retry later or widen the batching window"
            ) from None
        self.telemetry.inc("gateway.submitted")
        self.telemetry.set_gauge("gateway.queue_depth", self._queue.qsize())
        return request.future

    def submit_range(
        self,
        low: float,
        high: float,
        alpha: float,
        delta: float,
        consumer: str = "anonymous",
    ) -> "Future[PrivateAnswer]":
        """Convenience: build the query/spec pair and :meth:`submit` it."""
        query = RangeQuery(low=low, high=high, dataset=self.broker.dataset)
        return self.submit(query, AccuracySpec(alpha=alpha, delta=delta),
                           consumer=consumer)

    def answer(
        self,
        low: float,
        high: float,
        alpha: float,
        delta: float,
        consumer: str = "anonymous",
        timeout: Optional[float] = None,
    ) -> PrivateAnswer:
        """Blocking submit: wait for the coalesced answer."""
        return self.submit_range(
            low, high, alpha, delta, consumer=consumer
        ).result(timeout=timeout)

    def snapshot(self) -> Dict[str, object]:
        """Telemetry snapshot plus cache stats, JSON-ready."""
        snap: Dict[str, object] = dict(self.telemetry.snapshot())
        if self.cache is not None:
            stats = self.cache.stats
            snap["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "size": stats.size,
                "hit_rate": stats.hit_rate,
            }
        return snap

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            first = self._queue.get()
            if first is _STOP or first is _KILL:
                return
            batch = [first]
            deadline = time.perf_counter() + self.config.batch_window
            exit_seen = False
            while len(batch) < self.config.max_batch:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _STOP or item is _KILL:
                    # A killed worker still dispatches the batch in hand
                    # (requeueing would break FIFO order); surviving a
                    # crash *mid-charge* is the journal's job, not the
                    # queue's.
                    exit_seen = True
                    break
                batch.append(item)
            self._dispatch(batch)
            if exit_seen:
                return

    def _drain_remaining(self) -> None:
        batch: List[_Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP or item is _KILL:
                continue
            batch.append(item)
        if batch:
            self._dispatch(batch)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, batch: "List[_Request]") -> None:
        with self._dispatch_lock:
            with self.telemetry.timer("gateway.dispatch_s"):
                self._dispatch_locked(batch)

    def _dispatch_locked(self, batch: "List[_Request]") -> None:
        self.telemetry.observe("gateway.batch_width", len(batch))

        # 0. Deadline check: requests past their deadline fail fast,
        #    before any billing or budget is touched.
        fresh_enough: List[_Request] = []
        for request in batch:
            if request.deadline is not None and request.deadline.expired():
                self._miss_window.append(True)
                self.telemetry.inc("gateway.deadline_exceeded")
                self._fail(request, DeadlineExceededError(
                    f"request from {request.consumer!r} sat in the queue "
                    f"{-request.deadline.remaining():.3f}s past its "
                    "deadline"
                ))
            else:
                self._miss_window.append(False)
                fresh_enough.append(request)
        batch = fresh_enough
        self._observe_overload()
        if not batch:
            return

        store_version = self.broker.base_station.store_version
        pending: List[_Request] = []

        # Range-aware brokers key cached releases on the route signature
        # too (pruned/exact-cover answers must never alias a broadcast).
        sig_fn = getattr(self.broker, "routing_signature", None)
        routings: "Dict[int, str]" = {}

        def routing_of(request: "_Request") -> str:
            if sig_fn is None:
                return ""
            sig = routings.get(id(request))
            if sig is None:
                sig = sig_fn(request.query, request.spec)
                routings[id(request)] = sig
            return sig

        # 1. Cache replays: identical to an already-released answer at the
        #    current store version -- billed at list price, ε′ = 0.
        for request in batch:
            if self.cache is not None:
                key = AnswerCache.key_for(
                    request.query, request.spec, store_version,
                    routing_of(request),
                )
                cached = self.cache.get(key)
                if cached is not None:
                    self._replay(request, cached)
                    continue
            pending.append(request)

        # 2. In-window coalescing of duplicates: the first occurrence of a
        #    (query, tier) key is released fresh, later occurrences replay
        #    it -- exactly the cache semantics, applied inside one window.
        fresh: List[_Request] = []
        dups: List[Tuple[_Request, int]] = []  # (request, index into fresh)
        if self.cache is not None:
            seen: Dict[Tuple, int] = {}
            for request in pending:
                key = AnswerCache.key_for(
                    request.query, request.spec, store_version,
                    routing_of(request),
                )
                if key in seen:
                    dups.append((request, seen[key]))
                else:
                    seen[key] = len(fresh)
                    fresh.append(request)
        else:
            fresh = pending

        # 2b. Brownout ladder: a fresh request may be served at an
        #     explicitly weaker contract (wider α, lower reported δ).
        #     The served spec re-enters the normal plan/price path, so
        #     the weaker contract is the one journaled and billed; the
        #     answer carries both specs for provenance.
        served_specs: List[AccuracySpec] = [r.spec for r in fresh]
        rungs: List[str] = ["none"] * len(fresh)
        shed: List[bool] = [False] * len(fresh)
        if self.brownout is not None:
            for idx, request in enumerate(fresh):
                decision = self.brownout.decide(request.spec)
                if decision.served is None:
                    # The ladder climbed to shed while this request sat
                    # queued.  Refuse it now: never billed, never planned.
                    shed[idx] = True
                    self.telemetry.inc("gateway.brownout.shed")
                    self._fail(request, BrownoutShedError(
                        "gateway reached the shed brownout rung while the "
                        "request was queued",
                        retry_after=self.brownout.config.retry_after,
                    ))
                else:
                    served_specs[idx] = decision.served
                    rungs[idx] = decision.rung if decision.served != request.spec else "none"

        # 3. Fresh releases: group by consumer (accounting is per
        #    consumer) preserving arrival order, one answer_batch each.
        #    Each group dispatches under the earliest member deadline so
        #    downstream layers (cluster fan-out, worker pipes) can fail
        #    fast before journaling -- no answer in the group is ever
        #    released past its own deadline.
        fresh_answers: "List[Optional[PrivateAnswer]]" = [None] * len(fresh)
        groups: "Dict[str, List[int]]" = {}
        for idx, request in enumerate(fresh):
            if not shed[idx]:
                groups.setdefault(request.consumer, []).append(idx)
        for consumer, indices in groups.items():
            queries = [fresh[i].query for i in indices]
            specs = [served_specs[i] for i in indices]
            deadlines = [
                fresh[i].deadline
                for i in indices
                if fresh[i].deadline is not None
            ]
            group_deadline = (
                min(deadlines, key=lambda d: d.expires_at)
                if deadlines
                else None
            )
            try:
                with deadline_scope(group_deadline):
                    answers = self.broker.answer_batch(
                        queries, specs, consumer=consumer
                    )
            except Exception as exc:  # repro-lint: shed -- fail the whole group atomically
                if isinstance(exc, DeadlineExceededError):
                    self.telemetry.inc("gateway.deadline_exceeded")
                for i in indices:
                    self._fail(fresh[i], exc)
                continue
            for i, answer in zip(indices, answers):
                if rungs[i] != "none":
                    self.telemetry.inc(f"gateway.brownout.{rungs[i]}")
                    answer = replace(
                        answer,
                        brownout_rung=rungs[i],
                        requested_spec=fresh[i].spec,
                    )
                fresh_answers[i] = answer

        # 4. Populate the cache at the *post-dispatch* store version (a
        #    top-up during answer_batch bumps it; keys must match future
        #    lookups against the new store).
        if self.cache is not None:
            post_version = self.broker.base_station.store_version
            for request, answer in zip(fresh, fresh_answers):
                # Brownout-degraded releases are never cached: once the
                # ladder descends, an identical request must get its full
                # contract again, not a replay of the weakened one.
                if answer is not None and answer.brownout_rung == "none":
                    # Recompute the signature: a mid-dispatch top-up can
                    # flip the route, and future lookups key against the
                    # post-dispatch state.
                    routing = (
                        sig_fn(request.query, request.spec)
                        if sig_fn is not None
                        else ""
                    )
                    key = AnswerCache.key_for(
                        request.query, request.spec, post_version, routing
                    )
                    self.cache.put(key, answer)

        # 5. Resolve futures: fresh first, then duplicates as replays of
        #    their in-window source.
        for request, answer in zip(fresh, fresh_answers):
            if answer is not None:
                self._finish(request, answer)
        for request, source_index in dups:
            source = fresh_answers[source_index]
            if source is None:
                self._fail(
                    request,
                    ServiceOverloadedError(
                        "coalesced source release failed; retry"
                    ),
                )
            else:
                self._replay(request, source)

    def _observe_overload(self) -> None:
        """Feed one overload sample to the brownout ladder (if attached)."""
        if self.brownout is None:
            return
        open_fraction_fn = getattr(
            self.broker, "breaker_open_fraction", None
        )
        miss_rate = (
            sum(self._miss_window) / len(self._miss_window)
            if self._miss_window
            else 0.0
        )
        level = self.brownout.observe(OverloadSignals(
            queue_fraction=min(
                1.0, self._queue.qsize() / self.config.queue_depth
            ),
            breaker_open_fraction=(
                float(open_fraction_fn()) if open_fraction_fn else 0.0
            ),
            deadline_miss_rate=miss_rate,
        ))
        self.telemetry.set_gauge("gateway.brownout_level", level)

    def _replay(self, request: _Request, cached: PrivateAnswer) -> None:
        try:
            # A duplicate coalesced behind a slow release may expire while
            # it waits; the broker refuses it before journaling anything.
            with deadline_scope(request.deadline):
                answer = self.broker.replay(cached, request.consumer)
        except Exception as exc:  # repro-lint: shed -- failure lands on the future
            if isinstance(exc, DeadlineExceededError):
                self.telemetry.inc("gateway.deadline_exceeded")
            self._fail(request, exc)
            return
        self.telemetry.inc("gateway.cache_replays")
        if self.brownout is not None and self.brownout.level >= 1:
            # Rung 1: cache-preferred service under pressure.  A replay
            # costs ε = 0 by construction; annotate so operators can see
            # the ladder working in answer provenance.
            self.telemetry.inc("gateway.brownout.cache")
            answer = replace(answer, brownout_rung="cache")
        self._finish(request, answer)

    def _finish(self, request: _Request, answer: PrivateAnswer) -> None:
        if self.admission is not None:
            self.admission.release(request.consumer, request.admitted_price)
        if request.deadline is not None and request.deadline.expired():
            # Invariant detector, not control flow: dispatch checks and
            # broker-side deadline checkpoints should make this
            # impossible; the overload drill asserts it stays zero.
            self.telemetry.inc("gateway.post_deadline_release")
        self.telemetry.inc("gateway.served")
        self.telemetry.observe(
            "gateway.latency_s", time.perf_counter() - request.enqueued_at
        )
        request.future.set_result(answer)

    def _fail(self, request: _Request, exc: Exception) -> None:
        if self.admission is not None:
            self.admission.release(request.consumer, request.admitted_price)
        self.telemetry.inc("gateway.failed")
        request.future.set_exception(exc)
