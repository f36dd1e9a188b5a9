"""One benchmark run: set up, measure, gate, and report one workload."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import layers
import stats
import tracing
import workloads as wl

#: Stack builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The last builds each measure one round of ``seconds / ROUNDS``, and
#: the end-to-end metrics are computed over all rounds together.
ROUNDS = 3

#: End-to-end metrics the last line carries, with their units.
END_TO_END = {
    "throughput_qps": "answers/s",
    "throughput_late_ratio": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "epsilon_per_answer": "eps/answer",
    "alpha_hit_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Reported in the full result only.
#:
#: * ``throughput_late_qps`` moves with the host's speed, which drifts by
#:   a fifth over minutes on a shared host; ``throughput_late_ratio``
#:   (late over whole-phase throughput) keeps the history-growth signal
#:   and cancels the drift, and is the one gated.
#: * A gateway dispatch completes up to 64 requests at once, so requests
#:   beyond p99 come from one or two dispatches per round:
#:   ``latency_p99_ms`` is printed, ``latency_p90_ms`` is gated.
#: * ``error_rate`` is 0 on a healthy run (``success_rate`` is gated) and
#:   ``write_p50_ms`` exists on ``stream_window`` alone.
REPORT_ONLY = {"throughput_late_qps": "answers/s", "latency_p99_ms": "ms",
               "error_rate": "ratio", "write_p50_ms": "ms"}


class GateFailure(Exception):
    """The run's outputs failed the correctness gate."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, params: wl.Params, seed: int, seconds: float,
               trace: bool, smoke: bool) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": params.name,
        "seed": seed,
        "params": asdict(params),
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# one phase: build a stack, run the loop, gate it
# ----------------------------------------------------------------------
class Phase:
    """A built stack, its inputs, and (after :meth:`run`) its record."""

    def __init__(self, params: wl.Params, seed: int,
                 work_dir: Path, inputs: Any,
                 request_of: Optional[Dict[int, int]] = None) -> None:
        self.params = params
        self.inputs = inputs
        self.request_of = request_of
        start = time.perf_counter()
        if params.kind == "stream":
            self.stack: Any = wl.StreamStack(params, seed, request_of)
        else:
            warm, _timed = inputs
            self.stack = wl.GatewayStack(params, seed, work_dir, warm,
                                         request_of)
        self.setup_s = time.perf_counter() - start
        self.record: Any = None
        self.books_before = (0.0, 0.0)
        self.replays_before = 0.0
        self.dispatches_before = 0

    def run(self, seconds: float) -> None:
        # Start every round on a collected heap: garbage left by earlier
        # rounds' stacks must not be swept inside this round's timing.
        gc.collect()
        stack = self.stack
        registry = stack.gateway.telemetry
        self.replays_before = registry.value("gateway.cache_replays")
        self.dispatches_before = registry.histogram("gateway.batch_width").count
        self.books_before = (stack.broker.ledger.total_revenue(),
                             stack.broker.accountant.spent(stack.broker.dataset))
        if self.params.kind == "stream":
            self.record = stack.run(wl.StreamRecord(), seconds)
        else:
            _warm, timed = self.inputs
            self.record = wl.closed_loop(
                stack.gateway, wl.request_maker(timed),
                len(timed), seconds, request_of=self.request_of,
            )

    def gate(self) -> List[str]:
        if self.params.kind == "stream":
            return wl.gate_stream(self.stack, self.record)
        return wl.gate_gateway(self.stack, self.inputs[1], self.record)

    def close(self) -> None:
        self.stack.close()

    # -- what the consumer saw -----------------------------------------
    def releases(self) -> wl.Releases:
        """Delivered timed answers."""
        if self.params.kind == "stream":
            return self.record.releases(self.stack.ranges)
        return wl.gateway_releases(self.stack, self.inputs[1], self.record)

    def timings(self) -> Tuple[np.ndarray, np.ndarray]:
        """(completion times, latencies) of delivered timed requests."""
        rec = self.record
        if self.params.kind == "stream":
            return np.asarray(rec.done_t), np.asarray(rec.latency_s)
        idx = rec.answered()
        return rec.done_t[idx], rec.done_t[idx] - rec.submit_t[idx]

    def counts(self) -> Tuple[int, int, int]:
        """(attempted, delivered, failed) over the timed phase."""
        rec = self.record
        delivered = (rec.delivered if self.params.kind == "stream"
                     else len(rec.answered()))
        return rec.submitted, delivered, len(rec.errors)

    def throughput(self) -> float:
        return self.counts()[1] / (self.record.end - self.record.start)


@dataclass
class Round:
    """What one measured round contributes to the end-to-end metrics."""

    attempted: int
    delivered: int
    duration: float
    late: Tuple[int, float]
    latency: np.ndarray
    epsilon: float
    #: hits and trials over distinct releases
    hits: Tuple[int, int]
    write_s: List[float]
    shares: Dict[str, float]


def measure(phase: Phase) -> Round:
    """Read one round's outcome off its record and the program's books."""
    attempted, delivered, _failed = phase.counts()
    done, latency = phase.timings()
    stack = phase.stack
    registry = stack.gateway.telemetry
    dataset = stack.broker.dataset
    # Each distinct release counts once: a replay repeats one noise draw,
    # so weighting by popularity would let a few hot keys decide the rate.
    hits = phase.releases().distinct_hits()
    replays = registry.value("gateway.cache_replays") - phase.replays_before
    dispatches = (registry.histogram("gateway.batch_width").count
                  - phase.dispatches_before)
    record = phase.record
    shares: Dict[str, float] = {
        "attempted": attempted,
        "delivered": delivered,
        "dispatches": dispatches,
        "replay_share": replays / delivered if delivered else 0.0,
        "fresh_share": 1.0 - replays / delivered if delivered else 0.0,
        "accountant_history": len(stack.broker.accountant.history(dataset)),
    }
    if phase.params.shards > 1:
        shares["pruned_shard_share"] = (
            float(np.mean(record.pruned[record.answered()]))
            / phase.params.shards)
    if phase.params.kind == "stream":
        shares["epochs"] = record.epochs
    return Round(
        attempted=attempted, delivered=delivered,
        duration=record.end - record.start,
        late=stats.late_window(done),
        latency=latency,
        epsilon=stack.broker.accountant.spent(dataset) - phase.books_before[1],
        hits=(int(np.sum(hits)), len(hits)),
        write_s=list(getattr(record, "write_s", [])),
        shares=shares,
    )


def end_to_end(rounds: List[Round]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metrics over all rounds together, and unmeasurable ones.

    The rounds are one timed phase split over fresh stacks: rates are
    totals over total time, percentiles are over every latency sample.
    """
    values: Dict[str, float] = {}
    unmeasured: Dict[str, str] = {}
    attempted = sum(r.attempted for r in rounds)
    delivered = sum(r.delivered for r in rounds)
    values["throughput_qps"] = delivered / sum(r.duration for r in rounds)
    values["throughput_late_qps"] = (sum(r.late[0] for r in rounds)
                                     / sum(r.late[1] for r in rounds))
    values["throughput_late_ratio"] = (values["throughput_late_qps"]
                                       / values["throughput_qps"])
    latency = np.concatenate([r.latency for r in rounds])
    for name, q in (("latency_p50_ms", 50.0), ("latency_p90_ms", 90.0),
                    ("latency_p99_ms", 99.0)):
        try:
            values[name] = stats.percentile(latency, q)[0] * 1e3
        except ValueError as exc:
            unmeasured[name] = str(exc)
    values["error_rate"] = (attempted - delivered) / attempted
    values["success_rate"] = delivered / attempted
    values["epsilon_per_answer"] = sum(r.epsilon for r in rounds) / delivered
    values["alpha_hit_rate"] = (sum(r.hits[0] for r in rounds)
                                / sum(r.hits[1] for r in rounds))
    writes = [w for r in rounds for w in r.write_s]
    if writes:
        values["write_p50_ms"] = statistics.median(writes) * 1e3
    return values, unmeasured


def layer_self_time(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds summed per layer (the span-name prefix)."""
    layers_s: Dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        layers_s[layer] = layers_s.get(layer, 0.0) + row["self_s"]
    return layers_s


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
def inputs_for(params: wl.Params, seed: int, seconds: float) -> Any:
    if params.kind == "stream":
        return None
    return wl.gateway_inputs(params, seed, seconds)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        root: Path, out_dir: Path) -> Dict[str, Any]:
    """Run one workload; returns the full result (raises GateFailure)."""
    params = wl.WORKLOADS[name]
    if smoke:
        params = wl.smoke_params(params)
    rounds = 1 if smoke or trace else ROUNDS
    inputs = inputs_for(params, seed, seconds / rounds)
    work_dir = out_dir / "work"
    result: Dict[str, Any] = {
        "provenance": provenance(root, params, seed, seconds, trace, smoke),
    }
    if not trace:
        builds = 1 if smoke else SETUP_REPEATS
        setup_times: List[float] = []
        rounds_run: List[Round] = []
        for i in range(builds):
            phase = Phase(params, seed, work_dir, inputs)
            setup_times.append(phase.setup_s)
            try:
                if i >= builds - rounds:
                    phase.run(seconds / rounds)
                    problems = phase.gate()
                    if problems:
                        raise GateFailure(problems)
                    rounds_run.append(measure(phase))
            finally:
                phase.close()
        values, unmeasured = end_to_end(rounds_run)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb()
        attempted = sum(r.attempted for r in rounds_run)
        result.update(
            attempted=attempted,
            failed=attempted - sum(r.delivered for r in rounds_run),
            metrics={k: {"value": values.get(k), "unit": u}
                     for k, u in END_TO_END.items()},
            report_only={k: {"value": values[k], "unit": u}
                         for k, u in REPORT_ONLY.items() if k in values},
            latency_samples=sum(len(r.latency) for r in rounds_run),
            shares={k: statistics.median(r.shares[k] for r in rounds_run)
                    for k in rounds_run[0].shares},
            setup_times_s=setup_times,
            unmeasured=unmeasured,
        )
        return result

    # Traced run: an untraced half, then a traced half on a fresh stack.
    half = seconds / 2.0
    plain = Phase(params, seed, work_dir, inputs)
    try:
        plain.run(half)
        problems = plain.gate()
    finally:
        plain.close()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = Phase(params, seed, work_dir, inputs,
                       request_of=tracer.request_of)
    except BaseException:
        tracer.restore()
        raise
    try:
        try:
            traced.run(half)
        finally:
            tracer.restore()
        problems += [f"traced: {p}" for p in traced.gate()]
        if problems:
            raise GateFailure(problems)
        attempted, delivered, failed = traced.counts()
        per_layer, unmeasured = layers.compute(tracer, traced.stack, delivered)
    finally:
        traced.close()
    per_layer["trace.overhead_share"] = 1.0 - traced.throughput() / plain.throughput()
    span_path = out_dir / f"spans-{name}-s{seed}.jsonl.gz"
    tracer.write(span_path)
    self_time = tracer.self_times()
    result.update(
        attempted=attempted, failed=failed,
        metrics={k: {"value": per_layer[k], "unit": unit}
                 for k, unit in layers.UNITS.items()
                 if k not in layers.WORKLOAD_SPECIFIC},
        report_only={k: {"value": per_layer[k], "unit": layers.UNITS[k]}
                     for k in sorted(layers.WORKLOAD_SPECIFIC)},
        self_time=self_time,
        layer_self_time=layer_self_time(self_time),
        span_file=str(span_path),
        unmeasured=unmeasured,
        books_gate="passed on the untraced and the traced half",
    )
    return result
