"""Spans recorded from outside the program, by wrapping public functions.

A :class:`Tracer` replaces a function where its caller looks it up (a
class attribute for methods, the importing module's global for plain
functions), records one span per call, and puts the original object back
on :meth:`Tracer.restore`.  Spans live in memory until the run ends.

A span is ``(id, name, start, end, parent, request, width)``:

* ``parent`` is the span open on the same thread when the call began,
  or -1.  A shard lane started on the cluster's scatter pool, where
  nothing is open, is parented to the dispatch span open at that
  moment, so it nests under the cluster batch that fanned it out.
* ``request`` is the benchmark's request number for ``submit``, and for
  a batch call the negative batch number; :attr:`Tracer.batches` maps a
  batch number to the request numbers it carried.  Spans below a batch
  share its number through their parent chain.
* ``width`` is the batch width of batch calls (0 elsewhere).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, int, int]

#: Spans that may start on a helper thread on behalf of the dispatch.
ADOPTED = frozenset({"cluster.shard_answer"})

#: Span names that are gateway-dispatch stages.  Outermost on the
#: dispatch thread, they are the time the dispatch attributes to a named
#: stage, and the parent a shard lane on a helper thread adopts.
DISPATCH_STAGES = frozenset({
    "serving.cache_get",
    "serving.cache_put",
    "core.answer_batch",
    "core.replay",
    "cluster.answer_batch",
    "cluster.replay",
    "cluster.route",
    "streaming.answer_batch",
    "streaming.replay",
})


class Tracer:
    """In-memory span recorder over wrapped functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: request numbers keyed by ``id(query)`` of benchmark-built queries.
        self.request_of: Dict[int, int] = {}
        #: batch number -> request numbers of the queries it carried.
        self.batches: Dict[int, List[int]] = {}
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._local = threading.local()
        self._dispatch_span = -1
        #: (owner, attribute, original, owned) of every live patch.
        self.patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             batch_arg: Optional[int] = None,
             request_arg: Optional[int] = None,
             keep_self: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``batch_arg`` is the positional index of a list of queries (the
        call is then a batch: its width and request numbers are kept);
        ``request_arg`` the index of a single benchmark-built query.
        ``keep_self`` keeps each call's first argument in
        :attr:`instances` under ``name``.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif name in ADOPTED:
                parent = tracer._dispatch_span
            else:
                parent = -1
            span_id = next(tracer._ids)
            request = 0
            width = 0
            if batch_arg is not None and len(args) > batch_arg:
                queries = args[batch_arg]
                width = len(queries)
                batch = next(tracer._batch_ids)
                tracer.batches[batch] = [
                    tracer.request_of.get(id(q), 0) for q in queries
                ]
                request = -batch
            elif request_arg is not None and len(args) > request_arg:
                request = tracer.request_of.get(id(args[request_arg]), 0)
            if keep_self:
                tracer.instances[name].append(args[0])
            outermost = not stack and name in DISPATCH_STAGES
            if outermost:
                tracer._dispatch_span = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if outermost:
                    tracer._dispatch_span = -1
                tracer.spans.append(
                    (span_id, name, start, end, parent, request, width)
                )

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self.patches:
            owner, attr, original, own = self.patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, List[Span]]:
        """Spans grouped by name, in start order (missing names: empty)."""
        grouped: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span[1]].append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: s[2])
        return grouped

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the part of its interval
        that its child spans cover (children on other threads may
        overlap one another; their union is subtracted once).
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[4] > 0:
                children[span[4]].append((span[2], span[3]))
        summary: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _parent, _req, _width in self.spans:
            row = summary.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            covered = _union_within(children.get(span_id, ()), start, end)
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - covered
        return summary

    def write(self, path: Any) -> None:
        """Write spans and batch membership as gzip'd JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"batches": self.batches}) + "\n")


def _union_within(intervals: Iterable[Tuple[float, float]],
                  start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures.

    Functions are wrapped where their callers look them up: methods on
    their class, ``sample_laplace_many`` in each broker module that
    imported it by name.
    """
    import repro.core.broker as core_broker
    import repro.streaming.broker as streaming_broker
    from repro.cluster.broker import ClusterBroker
    from repro.cluster.shard import ShardRuntime
    from repro.core.planner import QueryPlanner
    from repro.durability.journal import TradeJournal
    from repro.estimators.rank import RankCountingEstimator
    from repro.iot.base_station import BaseStation
    from repro.pricing.ledger import BillingLedger
    from repro.privacy.budget import BudgetAccountant
    from repro.serving.answer_cache import AnswerCache
    from repro.serving.gateway import ServingGateway
    from repro.streaming.accounting import EpochBudgetAccountant
    from repro.streaming.runtime import StreamingCluster
    from repro.workers.backend import (
        ClusterProcessBackend,
        RemoteShardEstimator,
    )
    from repro.workers.pool import WorkerPool
    from repro.workers.store import StorePublisher

    wrap: Callable[..., None] = tracer.wrap
    wrap(ServingGateway, "submit", "serving.submit", request_arg=1)
    wrap(AnswerCache, "get", "serving.cache_get")
    wrap(AnswerCache, "put", "serving.cache_put")
    wrap(core_broker.DataBroker, "answer_batch", "core.answer_batch",
         batch_arg=1)
    wrap(core_broker.DataBroker, "replay", "core.replay")
    wrap(QueryPlanner, "plan", "core.plan")
    wrap(RankCountingEstimator, "estimate_many", "estimators.estimate_many")
    wrap(RemoteShardEstimator, "estimate_many", "estimators.remote_many")
    wrap(core_broker, "sample_laplace_many", "privacy.noise")
    wrap(streaming_broker, "sample_laplace_many", "privacy.noise")
    wrap(BudgetAccountant, "charge_many", "privacy.charge_many")
    wrap(BudgetAccountant, "spent", "privacy.spent")
    wrap(BillingLedger, "record_many", "pricing.record_many")
    wrap(BillingLedger, "record", "pricing.record")
    wrap(TradeJournal, "append_many", "durability.append_many")
    wrap(ClusterBroker, "answer_batch", "cluster.answer_batch", batch_arg=1)
    wrap(ClusterBroker, "replay", "cluster.replay")
    wrap(ClusterBroker, "route_for_range", "cluster.route")
    wrap(ShardRuntime, "answer_batch", "cluster.shard_answer", batch_arg=1)
    wrap(WorkerPool, "request", "workers.request")
    wrap(StorePublisher, "publish", "workers.publish")
    wrap(ClusterProcessBackend, "attach", "workers.attach", keep_self=True)
    wrap(StreamingCluster, "ingest", "streaming.ingest")
    wrap(StreamingCluster, "roll", "streaming.roll")
    wrap(streaming_broker.StreamingBroker, "answer_batch",
         "streaming.answer_batch", batch_arg=1)
    wrap(streaming_broker.StreamingBroker, "replay", "streaming.replay")
    wrap(EpochBudgetAccountant, "charge_window", "streaming.charge_window")
    wrap(BaseStation, "ensure_rate", "iot.ensure_rate")
    wrap(BaseStation, "samples", "iot.samples")
