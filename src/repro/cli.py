"""Command-line interface: ``python -m repro <command>``.

Four commands cover the library's everyday surfaces:

* ``quote``       -- price an ``(α, δ)`` product from the published sheet.
* ``answer``      -- build the full simulated stack over the CityPulse
  surrogate and purchase one private range counting.
* ``answer-batch`` -- purchase many range countings at one tier in a
  single vectorized trade, reading ``low,high`` ranges from a CSV file.
* ``experiment``  -- regenerate one of the paper's figure series (fig2..
  fig6, or the estimator-comparison ablation) at a configurable scale.
* ``check-pricing`` -- run the Theorem 4.2 checker and the Example 4.1
  attack search against a chosen pricing family.
* ``serve``       -- run a CSV of multi-consumer requests through the
  concurrent serving gateway (coalescing + answer cache + telemetry).
* ``loadgen``     -- drive the gateway with a closed- or open-loop load
  generator and report throughput/latency/accounting-drift (optionally
  as machine-readable BENCH JSON).
* ``chaos``       -- run a seeded fault-injection schedule (worker kills,
  broker crash-recovery from the trade journal, shard partitions, burst
  loss) over a live stack and audit the crash-safety invariants.

Every command prints plain ASCII tables (the same renderer the bench
harness uses) and returns a process exit code: 0 on success, 2 on invalid
arguments, 1 when a check fails (e.g. a pricing family is arbitrageable).
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.sweeps import (
    compare_estimators,
    sweep_alpha_delta,
    sweep_data_size,
    sweep_p_privacy,
    sweep_privacy_budget,
    sweep_sampling_probability,
)
from repro.core.service import PrivateRangeCountingService
from repro.datasets.citypulse import AIR_QUALITY_INDEXES, generate_citypulse
from repro.pricing.arbitrage import check_arbitrage_avoiding, find_averaging_attack
from repro.pricing.functions import (
    InverseVariancePricing,
    LinearAccuracyPricing,
    PowerLawVariancePricing,
    TieredPricing,
)
from repro.pricing.variance_model import VarianceModel

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trading private range counting over (simulated) IoT data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quote = sub.add_parser("quote", help="price an (alpha, delta) product")
    quote.add_argument("--alpha", type=float, required=True)
    quote.add_argument("--delta", type=float, required=True)
    quote.add_argument("--records", type=int, default=17568)
    quote.add_argument("--base-price", type=float, default=1.0)

    answer = sub.add_parser(
        "answer", help="purchase one private range counting end to end"
    )
    answer.add_argument("--index", choices=AIR_QUALITY_INDEXES, default="ozone")
    answer.add_argument("--low", type=float, required=True)
    answer.add_argument("--high", type=float, required=True)
    answer.add_argument("--alpha", type=float, default=0.1)
    answer.add_argument("--delta", type=float, default=0.5)
    answer.add_argument("--records", type=int, default=17568)
    answer.add_argument("--devices", type=int, default=16)
    answer.add_argument("--seed", type=int, default=7)
    answer.add_argument(
        "--show-truth",
        action="store_true",
        help="also print the exact count (harness/debug use)",
    )

    batch = sub.add_parser(
        "answer-batch",
        help="purchase many private range countings in one batched trade",
    )
    batch.add_argument("--index", choices=AIR_QUALITY_INDEXES, default="ozone")
    batch.add_argument(
        "--ranges-csv",
        required=True,
        help="CSV file of low,high rows (a header line is allowed)",
    )
    batch.add_argument("--alpha", type=float, default=0.1)
    batch.add_argument("--delta", type=float, default=0.5)
    batch.add_argument("--records", type=int, default=17568)
    batch.add_argument("--devices", type=int, default=16)
    batch.add_argument("--seed", type=int, default=7)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper-figure series"
    )
    experiment.add_argument(
        "name",
        choices=["fig2", "fig3", "fig4", "fig5", "fig6", "estimators"],
    )
    experiment.add_argument("--records", type=int, default=17568)
    experiment.add_argument("--devices", type=int, default=16)
    experiment.add_argument("--queries", type=int, default=20)
    experiment.add_argument("--trials", type=int, default=3)
    experiment.add_argument("--seed", type=int, default=2014)

    histogram = sub.add_parser(
        "histogram", help="release a private banded histogram"
    )
    histogram.add_argument("--index", choices=AIR_QUALITY_INDEXES,
                           default="ozone")
    histogram.add_argument("--low", type=float, default=0.0)
    histogram.add_argument("--high", type=float, default=200.0)
    histogram.add_argument("--buckets", type=int, default=8)
    histogram.add_argument("--epsilon", type=float, default=1.0)
    histogram.add_argument("--records", type=int, default=17568)
    histogram.add_argument("--devices", type=int, default=16)
    histogram.add_argument("--seed", type=int, default=7)

    quantile = sub.add_parser(
        "quantile", help="release a private quantile"
    )
    quantile.add_argument("--index", choices=AIR_QUALITY_INDEXES,
                          default="ozone")
    quantile.add_argument("--q", type=float, required=True)
    quantile.add_argument("--epsilon", type=float, default=5.0)
    quantile.add_argument("--records", type=int, default=17568)
    quantile.add_argument("--devices", type=int, default=16)
    quantile.add_argument("--seed", type=int, default=7)

    claims = sub.add_parser(
        "verify-claims", help="re-check every paper claim programmatically"
    )
    claims.add_argument("--records", type=int, default=17568)
    claims.add_argument("--devices", type=int, default=16)
    claims.add_argument("--trials", type=int, default=1500)
    claims.add_argument("--seed", type=int, default=2014)

    pricing = sub.add_parser(
        "check-pricing", help="audit a pricing family for arbitrage"
    )
    pricing.add_argument(
        "family",
        choices=["inverse", "power", "linear", "tiered"],
    )
    pricing.add_argument("--exponent", type=float, default=2.0,
                         help="power-law exponent (family=power)")
    pricing.add_argument("--records", type=int, default=17568)
    pricing.add_argument("--base-price", type=float, default=1e8)

    serve = sub.add_parser(
        "serve",
        help="serve a CSV of concurrent requests through the gateway",
    )
    serve.add_argument("--index", choices=AIR_QUALITY_INDEXES, default="ozone")
    serve.add_argument(
        "--requests-csv",
        required=True,
        help="CSV of consumer,low,high,alpha,delta rows (header allowed)",
    )
    serve.add_argument("--records", type=int, default=17568)
    serve.add_argument("--devices", type=int, default=16)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--window", type=float, default=0.002,
                       help="batching window in seconds")
    serve.add_argument("--max-batch", type=int, default=128)
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the privacy-aware answer cache")
    serve.add_argument("--metrics", action="store_true",
                       help="print the telemetry snapshot as JSON")

    loadgen = sub.add_parser(
        "loadgen", help="drive the gateway with generated load"
    )
    loadgen.add_argument("--index", choices=AIR_QUALITY_INDEXES,
                         default="ozone")
    loadgen.add_argument("--mode", choices=["closed", "open"],
                         default="closed")
    loadgen.add_argument("--consumers", type=int, default=4)
    loadgen.add_argument("--requests", type=int, default=500,
                         help="total requests (closed mode: split evenly)")
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="open mode: arrivals per second")
    loadgen.add_argument("--pipeline", type=int, default=16,
                         help="closed mode: outstanding requests/consumer")
    loadgen.add_argument("--ranges", type=int, default=64,
                         help="distinct query ranges in the workload")
    loadgen.add_argument(
        "--tiers",
        default="0.1:0.5,0.15:0.6,0.2:0.5",
        help="comma-separated alpha:delta product tiers",
    )
    loadgen.add_argument("--records", type=int, default=17568)
    loadgen.add_argument("--devices", type=int, default=16)
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--window", type=float, default=0.002)
    loadgen.add_argument("--max-batch", type=int, default=128)
    loadgen.add_argument("--no-cache", action="store_true")
    loadgen.add_argument("--json", metavar="PATH",
                         help="write a BENCH-format JSON report here")
    loadgen.add_argument(
        "--assert-healthy",
        action="store_true",
        help="exit 1 unless throughput is nonzero, nothing failed, and "
             "ledger/accountant drift is zero (the CI smoke contract)",
    )

    cserve = sub.add_parser(
        "cluster-serve",
        help="serve a CSV of concurrent requests through a sharded cluster",
    )
    cserve.add_argument("--index", choices=AIR_QUALITY_INDEXES, default="ozone")
    cserve.add_argument(
        "--requests-csv",
        required=True,
        help="CSV of consumer,low,high,alpha,delta rows (header allowed)",
    )
    cserve.add_argument("--records", type=int, default=17568)
    cserve.add_argument("--devices", type=int, default=64)
    cserve.add_argument("--shards", type=int, default=4)
    cserve.add_argument("--partition", default="even",
                        choices=["even", "round-robin", "dirichlet",
                                 "range-sharded"])
    cserve.add_argument("--no-replicas", action="store_true",
                        help="build shards without failover replicas")
    cserve.add_argument("--seed", type=int, default=7)
    cserve.add_argument("--window", type=float, default=0.002,
                        help="batching window in seconds")
    cserve.add_argument("--max-batch", type=int, default=128)
    cserve.add_argument("--no-cache", action="store_true",
                        help="disable the privacy-aware answer cache")
    cserve.add_argument("--metrics", action="store_true",
                        help="print the telemetry snapshot as JSON")
    cserve.add_argument("--execution", default="threads",
                        choices=["threads", "processes"],
                        help="estimation backend: 'processes' fans "
                             "rank/estimate sub-queries out to per-shard "
                             "worker processes (repro.workers)")
    cserve.add_argument("--workers", type=int, default=1,
                        help="gateway dispatcher worker threads")

    cbench = sub.add_parser(
        "cluster-bench",
        help="benchmark single-station vs sharded serving, with failover",
    )
    cbench.add_argument("--index", choices=AIR_QUALITY_INDEXES,
                        default="ozone")
    cbench.add_argument("--records", type=int, default=17568)
    cbench.add_argument("--devices", type=int, default=64)
    cbench.add_argument("--shards", default="4,8",
                        help="comma-separated shard counts to benchmark")
    cbench.add_argument("--requests", type=int, default=500,
                        help="total requests per phase")
    cbench.add_argument("--consumers", type=int, default=4)
    cbench.add_argument("--ranges", type=int, default=16,
                        help="distinct query ranges in the workload")
    cbench.add_argument(
        "--tiers",
        default="0.1:0.5,0.15:0.6,0.2:0.5",
        help="comma-separated alpha:delta product tiers",
    )
    cbench.add_argument("--partition", default="even",
                        choices=["even", "round-robin", "dirichlet",
                                 "range-sharded"])
    cbench.add_argument("--seed", type=int, default=11,
                        help="seeds channels, samplers, and noise draws; "
                             "accounting fields are reproducible per seed")
    cbench.add_argument("--window", type=float, default=0.004)
    cbench.add_argument("--max-batch", type=int, default=64)
    cbench.add_argument("--no-baseline", action="store_true",
                        help="skip the single-station baseline phase")
    cbench.add_argument("--no-failover", action="store_true",
                        help="skip the mid-run primary-kill phase")
    cbench.add_argument("--execution", default="threads",
                        choices=["threads", "processes"],
                        help="estimation backend for the cluster phases")
    cbench.add_argument("--workers", type=int, default=1,
                        help="gateway dispatcher worker threads")
    cbench.add_argument("--no-workers-compare", action="store_true",
                        help="skip the threads-vs-processes workers phase")
    cbench.add_argument("--json", metavar="PATH",
                        help="write a BENCH-format JSON report here")
    cbench.add_argument(
        "--assert-healthy",
        action="store_true",
        help="exit 1 unless every phase completed with zero failures and "
             "zero accounting drift, and the failover phase (if run) "
             "actually failed over (the CI smoke contract)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection schedule over a live trading "
             "stack and audit the crash-safety invariants",
    )
    chaos.add_argument("--index", choices=AIR_QUALITY_INDEXES, default="ozone")
    chaos.add_argument("--records", type=int, default=8000)
    chaos.add_argument("--devices", type=int, default=16)
    chaos.add_argument("--shards", type=int, default=2,
                       help="shard count (1 = plain single-station broker)")
    chaos.add_argument("--trades", type=int, default=200,
                       help="length of the deterministic request stream")
    chaos.add_argument("--consumers", type=int, default=4)
    chaos.add_argument("--ranges", type=int, default=16,
                       help="distinct query ranges in the workload")
    chaos.add_argument(
        "--tiers",
        default="0.1:0.5,0.15:0.6,0.2:0.5",
        help="comma-separated alpha:delta product tiers",
    )
    chaos.add_argument("--seed", type=int, default=29,
                       help="seeds the fault schedule, channels, samplers, "
                            "and noise draws; the whole run is a pure "
                            "function of this")
    chaos.add_argument("--execution", default="threads",
                       choices=["threads", "processes"],
                       help="estimation backend; 'processes' adds "
                            "kill_worker_process (SIGKILL of a shard "
                            "worker) to the fault schedule")
    chaos.add_argument("--journal", metavar="PATH",
                       help="persist the trade journal as JSONL here "
                            "(first run only; defaults to in-memory)")
    chaos.add_argument("--json", metavar="PATH",
                       help="write a BENCH-format JSON report here")
    chaos.add_argument(
        "--profile", default="standard",
        choices=["standard", "overload"],
        help="'standard' runs the crash-safety schedule; 'overload' adds "
             "a limping shard, manual-clock deadline storms, and a "
             "scheduled brownout-ladder sweep on a resilience-wired "
             "gateway (deadlines, breakers, hedging, brownout), auditing "
             "two extra invariants: no post-deadline release and "
             "per-answer (α, δ) rung honesty",
    )
    chaos.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the identical schedule twice on fresh stacks and "
             "require bit-identical outcome checksums",
    )
    chaos.add_argument(
        "--assert-invariants",
        action="store_true",
        help="exit 1 unless all chaos invariants hold (and, with "
             "--check-determinism, both runs agree) -- the CI contract; "
             "the overload profile additionally requires the drill to "
             "have engaged (deadline expiries, sheds, repriced rungs)",
    )

    sserve = sub.add_parser(
        "stream-serve",
        help="serve a CSV of requests over a live sliding-window cluster "
             "after ingesting synthetic epochs",
    )
    sserve.add_argument(
        "--requests-csv",
        required=True,
        help="CSV of consumer,low,high,alpha,delta rows (header allowed)",
    )
    sserve.add_argument("--epochs", type=int, default=6,
                        help="synthetic epochs to ingest and roll before "
                             "serving")
    sserve.add_argument("--shards", type=int, default=4)
    sserve.add_argument("--devices-per-shard", type=int, default=8)
    sserve.add_argument("--window-epochs", type=int, default=4,
                        help="sliding window width W in epochs")
    sserve.add_argument("--arrivals", type=int, default=1024,
                        help="records arriving per epoch")
    sserve.add_argument("--floor", default="0.15:0.5",
                        help="alpha:delta accuracy floor epoch rates are "
                             "provisioned for")
    sserve.add_argument("--seed", type=int, default=13)
    sserve.add_argument("--window", type=float, default=0.002,
                        help="gateway batching window in seconds")
    sserve.add_argument("--max-batch", type=int, default=128)
    sserve.add_argument("--no-cache", action="store_true",
                        help="disable the privacy-aware answer cache")
    sserve.add_argument("--metrics", action="store_true",
                        help="print the telemetry snapshot as JSON")
    sserve.add_argument("--execution", default="threads",
                        choices=["threads", "processes"],
                        help="estimation backend: 'processes' pools epoch "
                             "estimates in a worker process (repro.workers)")
    sserve.add_argument("--workers", type=int, default=1,
                        help="gateway dispatcher worker threads")

    sbench = sub.add_parser(
        "stream-bench",
        help="benchmark continuous windowed serving: per-epoch budgets, "
             "cache invalidation across rolls, accounting drift",
    )
    sbench.add_argument("--epochs", type=int, default=8,
                        help="epochs to ingest, roll, and query")
    sbench.add_argument("--shards", type=int, default=4)
    sbench.add_argument("--devices-per-shard", type=int, default=8)
    sbench.add_argument("--window-epochs", type=int, default=4,
                        help="sliding window width W in epochs")
    sbench.add_argument("--arrivals", type=int, default=1024,
                        help="records arriving per epoch")
    sbench.add_argument("--ranges", type=int, default=6,
                        help="distinct query ranges per epoch")
    sbench.add_argument(
        "--tiers",
        default="0.15:0.5,0.2:0.4,0.3:0.25",
        help="comma-separated alpha:delta product tiers (all must sit at "
             "or above the floor)",
    )
    sbench.add_argument("--floor", default="0.15:0.5",
                        help="alpha:delta accuracy floor epoch rates are "
                             "provisioned for")
    sbench.add_argument("--consumers", type=int, default=2)
    sbench.add_argument("--seed", type=int, default=13,
                        help="seeds arrivals, device samplers, channels, "
                             "and noise; the payload is a pure function "
                             "of this up to timing fields")
    sbench.add_argument("--json", metavar="PATH",
                        help="write a BENCH-format JSON report here")
    sbench.add_argument(
        "--assert-healthy",
        action="store_true",
        help="exit 1 unless throughput is nonzero, nothing failed or "
             "drifted, the cache hit across rolls without ever serving "
             "stale, and steady-state epsilon stayed bounded (the CI "
             "smoke contract)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware static-analysis rules (RL001-RL006)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    bcompare = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_*.json artifacts (deterministic metrics "
             "gated tight, timing metrics reported loose)",
    )
    bcompare.add_argument("baseline", help="baseline BENCH_*.json path")
    bcompare.add_argument("candidate", help="candidate BENCH_*.json path")
    bcompare.add_argument(
        "--rel-tol",
        type=float,
        default=1e-6,
        help="relative tolerance for deterministic metrics "
             "(use ~1e-4 when comparing across hosts; default 1e-6)",
    )
    bcompare.add_argument(
        "--timing-tol",
        type=float,
        default=None,
        help="fail timing metrics that change by more than this factor "
             "(default: report timing, never fail it)",
    )
    bcompare.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PREFIX",
        help="skip metrics under this dotted-path prefix (repeatable; "
             "e.g. --ignore failover for the racy fault-injection phase)",
    )
    bcompare.add_argument(
        "--verbose",
        action="store_true",
        help="print every compared metric, not just failures",
    )

    return parser


def _cmd_quote(args: argparse.Namespace) -> int:
    pricing = InverseVariancePricing(
        VarianceModel(n=args.records), base_price=args.base_price
    )
    price = pricing.price(args.alpha, args.delta)
    variance = pricing.variance_model.variance(args.alpha, args.delta)
    print(
        format_table(
            ["alpha", "delta", "delivered_variance", "price"],
            [(args.alpha, args.delta, variance, price)],
        )
    )
    return 0


def _cmd_answer(args: argparse.Namespace) -> int:
    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data, args.index, k=args.devices, seed=args.seed
    )
    answer = service.answer(
        args.low, args.high, alpha=args.alpha, delta=args.delta,
        consumer="cli",
    )
    rows = [
        ("released_count", answer.value),
        ("tolerance", args.alpha * service.n),
        ("confidence", args.delta),
        ("price", answer.price),
        ("epsilon", answer.plan.epsilon),
        ("epsilon_prime", answer.epsilon_prime),
        ("alpha_prime", answer.plan.alpha_prime),
        ("delta_prime", answer.plan.delta_prime),
        ("sampling_rate", answer.plan.p),
        ("sample_pairs_shipped", service.communication_report()["sample_pairs"]),
    ]
    if args.show_truth:
        rows.insert(1, ("true_count", service.true_count(args.low, args.high)))
    print(format_table(["field", "value"], rows))
    return 0


def _read_ranges_csv(path: str) -> "List[tuple[float, float]]":
    """Parse ``low,high`` rows from a CSV file; one header line is allowed."""
    ranges: List[tuple] = []
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            cells = [cell.strip() for cell in row if cell.strip()]
            if not cells:
                continue
            if len(cells) != 2:
                raise ValueError(
                    f"{path}:{line_no}: expected two columns (low, high), "
                    f"got {len(cells)}"
                )
            try:
                low, high = float(cells[0]), float(cells[1])
            except ValueError:
                if line_no == 1:  # header line
                    continue
                raise ValueError(
                    f"{path}:{line_no}: non-numeric range bounds {cells!r}"
                ) from None
            ranges.append((low, high))
    if not ranges:
        raise ValueError(f"{path}: no ranges found")
    return ranges


def _cmd_answer_batch(args: argparse.Namespace) -> int:
    try:
        ranges = _read_ranges_csv(args.ranges_csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data, args.index, k=args.devices, seed=args.seed
    )
    answers = service.answer_many(
        ranges, alpha=args.alpha, delta=args.delta, consumer="cli"
    )
    print(
        format_table(
            ["low", "high", "released_count", "price", "epsilon_prime"],
            [
                (a.query.low, a.query.high, a.value, a.price, a.epsilon_prime)
                for a in answers
            ],
        )
    )
    print(
        f"{len(answers)} queries answered in one batch; "
        f"total price {sum(a.price for a in answers):.6g}, "
        f"total eps' charged {service.privacy_spent():.6g}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    data = generate_citypulse(record_count=args.records)
    values = data.values("ozone")
    k, queries, trials, seed = args.devices, args.queries, args.trials, args.seed
    if args.name == "fig2":
        result = sweep_sampling_probability(
            values, k=k, ps=list(np.geomspace(0.0173, 0.4048, 12)),
            num_queries=queries, trials=trials, seed=seed,
        )
    elif args.name == "fig3":
        result = sweep_alpha_delta(
            values, k=k, levels=list(np.linspace(0.08, 0.8, 10)),
            num_queries=queries, trials=trials, seed=seed,
        )
    elif args.name == "fig4":
        result = sweep_data_size(
            values, k=k, fractions=list(np.linspace(0.1, 1.0, 10)),
        )
    elif args.name == "fig5":
        columns = {name: data.values(name) for name in AIR_QUALITY_INDEXES}
        result = sweep_privacy_budget(
            columns, k=k, epsilons=list(np.geomspace(0.01, 8.0, 10)),
            num_queries=max(4, queries // 2), trials=trials, seed=seed,
        )
    elif args.name == "fig6":
        result = sweep_p_privacy(
            values, k=k, ps=list(np.geomspace(0.0173, 0.25, 8)),
            epsilons=[0.1, 0.5, 2.0],
            num_queries=max(4, queries // 2), trials=trials, seed=seed,
        )
    else:
        result = compare_estimators(
            values, k=k, ps=[0.05, 0.1, 0.2, 0.4],
            num_queries=queries, trials=trials, seed=seed,
        )
    print(result.table())
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data, args.index, k=args.devices, seed=args.seed
    )
    release = service.histogram(
        args.low, args.high, buckets=args.buckets, epsilon=args.epsilon
    )
    rows = [
        (f"[{release.edges[b]:.4g}, {release.edges[b + 1]:.4g})",
         release.counts[b])
        for b in range(release.buckets)
    ]
    print(format_table(["bucket", "released_count"], rows))
    print(
        f"total eps' charged: {release.epsilon_prime:.6g} "
        f"(parallel composition over {release.buckets} buckets)"
    )
    return 0


def _cmd_quantile(args: argparse.Namespace) -> int:
    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data, args.index, k=args.devices, seed=args.seed
    )
    release = service.private_quantile(args.q, epsilon=args.epsilon)
    print(
        format_table(
            ["field", "value"],
            [
                ("q", release.q),
                ("released_value", release.value),
                ("epsilon", release.epsilon),
                ("epsilon_prime", release.epsilon_prime),
                ("probes", release.probes),
            ],
        )
    )
    return 0


def _cmd_verify_claims(args: argparse.Namespace) -> int:
    from repro.analysis.claims import Scale, claims_table, run_claims

    results = run_claims(
        Scale(n=args.records, k=args.devices, trials=args.trials,
              seed=args.seed)
    )
    print(claims_table(results))
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} claims verified")
    return 0 if not failed else 1


def _build_pricing(args: argparse.Namespace):
    model = VarianceModel(n=args.records)
    if args.family == "inverse":
        return InverseVariancePricing(model, base_price=args.base_price)
    if args.family == "power":
        return PowerLawVariancePricing(
            model, base_price=args.base_price, exponent=args.exponent
        )
    if args.family == "linear":
        return LinearAccuracyPricing(model)
    v_mid = model.variance(0.3, 0.5)
    return TieredPricing(
        model,
        tiers=[(v_mid / 10, 100.0), (v_mid, 10.0), (v_mid * 100, 1.0)],
    )


def _cmd_check_pricing(args: argparse.Namespace) -> int:
    pricing = _build_pricing(args)
    report = check_arbitrage_avoiding(pricing)
    attack = find_averaging_attack(pricing, target_alpha=0.05, target_delta=0.8)
    print(
        format_table(
            ["pricing", "thm42_pass", "violations", "attack_found"],
            [(
                pricing.name,
                report.arbitrage_avoiding,
                len(report.violations),
                attack is not None,
            )],
        )
    )
    for violation in report.violations[:5]:
        print("  " + violation.describe())
    if len(report.violations) > 5:
        print(f"  ... and {len(report.violations) - 5} more violations")
    if attack is not None:
        print("  attack: " + attack.describe())
    return 0 if report.arbitrage_avoiding else 1


def _read_requests_csv(path: str) -> "List[tuple[str, float, float, float, float]]":
    """Parse ``consumer,low,high,alpha,delta`` rows; header allowed."""
    requests: List[tuple] = []
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            cells = [cell.strip() for cell in row if cell.strip()]
            if not cells:
                continue
            if len(cells) != 5:
                raise ValueError(
                    f"{path}:{line_no}: expected five columns "
                    f"(consumer, low, high, alpha, delta), got {len(cells)}"
                )
            try:
                low, high = float(cells[1]), float(cells[2])
                alpha, delta = float(cells[3]), float(cells[4])
            except ValueError:
                if line_no == 1:  # header line
                    continue
                raise ValueError(
                    f"{path}:{line_no}: non-numeric request fields {cells!r}"
                ) from None
            requests.append((cells[0], low, high, alpha, delta))
    if not requests:
        raise ValueError(f"{path}: no requests found")
    return requests


def _build_gateway(args: argparse.Namespace):
    from repro.serving import ServingConfig

    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data, args.index, k=args.devices, seed=args.seed
    )
    config = ServingConfig(
        batch_window=args.window,
        max_batch=args.max_batch,
        enable_cache=not args.no_cache,
    )
    return service, service.serve(config)


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        requests = _read_requests_csv(args.requests_csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service, gateway = _build_gateway(args)
    return _run_serve(service, gateway, requests, args)


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from repro.serving import ServingConfig

    try:
        requests = _read_requests_csv(args.requests_csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data,
        args.index,
        k=args.devices,
        seed=args.seed,
        shards=args.shards,
        partition=args.partition,
        replicas=not args.no_replicas,
    )
    config = ServingConfig(
        batch_window=args.window,
        max_batch=args.max_batch,
        enable_cache=not args.no_cache,
        execution=args.execution,
        workers=args.workers,
    )
    gateway = service.serve(config)
    return _run_serve(service, gateway, requests, args)


def _run_serve(service, gateway, requests, args: argparse.Namespace) -> int:
    return _serve_and_tabulate(
        gateway,
        requests,
        service.broker.ledger,
        lambda served: (
            f"{served} requests served; total eps' charged "
            f"{service.privacy_spent():.6g}, revenue "
            f"{service.broker.ledger.total_revenue():.6g}"
        ),
        args.metrics,
    )


def _serve_and_tabulate(gateway, requests, ledger, summary, metrics: bool) -> int:
    """Submit every request, print the billed-ε′ table, then ``summary``."""
    with gateway:
        futures = [
            (consumer, gateway.submit_range(low, high, alpha, delta,
                                            consumer=consumer))
            for consumer, low, high, alpha, delta in requests
        ]
        answers = [
            (consumer, future.result()) for consumer, future in futures
        ]
    # The ε′ billed for a request lives in its ledger transaction: a
    # cache replay carries its plan's ε′ on the answer object but is
    # billed (and composed) at zero.
    billed = {
        txn.transaction_id: txn.epsilon_prime for txn in ledger.transactions
    }
    rows = [
        (
            consumer,
            answer.query.low,
            answer.query.high,
            answer.value,
            answer.price,
            billed.get(answer.transaction_id, answer.epsilon_prime),
        )
        for consumer, answer in answers
    ]
    print(
        format_table(
            ["consumer", "low", "high", "released_count", "price",
             "epsilon_prime_billed"],
            rows,
        )
    )
    print(summary(len(rows)))
    if metrics:
        import json as _json

        print(_json.dumps(gateway.snapshot(), indent=1))
    return 0


def _parse_tiers(text: str) -> "List":
    from repro.core.query import AccuracySpec

    tiers = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            alpha_text, delta_text = token.split(":")
            tiers.append(
                AccuracySpec(alpha=float(alpha_text), delta=float(delta_text))
            )
        except ValueError:
            raise ValueError(
                f"bad tier {token!r}; expected alpha:delta"
            ) from None
    if not tiers:
        raise ValueError("no tiers given")
    return tiers


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serving import (
        Workload,
        run_closed_loop,
        run_open_loop,
        write_bench_json,
    )
    from repro.analysis.metrics import make_workload

    try:
        tiers = _parse_tiers(args.tiers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service, gateway = _build_gateway(args)
    values = service.truth.values
    ranges = list(
        make_workload(values, num_queries=args.ranges, seed=args.seed).ranges
    )
    workload = Workload(ranges=ranges, tiers=tiers)
    with gateway:
        if args.mode == "closed":
            per_consumer = max(1, args.requests // args.consumers)
            result = run_closed_loop(
                gateway,
                workload,
                consumers=args.consumers,
                requests_per_consumer=per_consumer,
                pipeline_depth=args.pipeline,
            )
        else:
            duration = args.requests / args.rate
            result = run_open_loop(
                gateway,
                workload,
                rate_qps=args.rate,
                duration_s=duration,
                consumers=args.consumers,
            )
    payload = result.to_payload()
    # The seed pins channels, samplers, and noise draws, so the accounting
    # fields of this payload are reproducible run-to-run; record it.
    payload["seed"] = args.seed
    print(
        format_table(
            ["metric", "value"],
            [(key, value) for key, value in payload.items()],
        )
    )
    if args.json:
        write_bench_json(args.json, "serving_loadgen", payload)
        print(f"wrote {args.json}")
    if args.assert_healthy:
        healthy = (
            result.throughput_qps > 0
            and result.failed == 0
            and abs(result.epsilon_drift) < 1e-6
            and abs(result.revenue_drift) < 1e-6
        )
        if not healthy:
            print(
                "loadgen UNHEALTHY: "
                f"throughput={result.throughput_qps:.3g}/s "
                f"failed={result.failed} "
                f"eps_drift={result.epsilon_drift:.3g} "
                f"revenue_drift={result.revenue_drift:.3g}",
                file=sys.stderr,
            )
            return 1
        print("loadgen healthy: nonzero throughput, zero accounting drift")
    return 0


def _phase_healthy(phase: "dict") -> bool:
    return (
        float(phase.get("throughput_qps", 0.0)) > 0
        and int(phase.get("failed", 1)) == 0
        and abs(float(phase.get("epsilon_drift", 1.0))) < 1e-6
        and abs(float(phase.get("revenue_drift", 1.0))) < 1e-6
    )


def _routed_phase_items(payload: "dict") -> "list[tuple[str, dict]]":
    """The per-scale routed phases of a cluster-bench payload, in order.

    Skips the non-phase keys (``tiers``, ``determinism_checksum``) and
    sorts numerically so ``1 < 4 < 8`` rather than lexicographically.
    """
    routed = payload.get("routed")
    if not isinstance(routed, dict):
        return []
    return sorted(
        (
            (name, phase)
            for name, phase in routed.items()
            if isinstance(phase, dict) and name.isdigit()
        ),
        key=lambda item: int(item[0]),
    )


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.cluster.bench import run_cluster_bench
    from repro.serving import write_bench_json

    try:
        tiers = _parse_tiers(args.tiers)
        shard_counts = [int(token) for token in args.shards.split(",") if token]
        if not shard_counts or any(s < 1 for s in shard_counts):
            raise ValueError(f"bad shard counts {args.shards!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = generate_citypulse(record_count=args.records)
    values = data.values(args.index)
    payload = run_cluster_bench(
        values,
        devices=args.devices,
        shard_counts=shard_counts,
        requests=args.requests,
        consumers=args.consumers,
        ranges=args.ranges,
        tiers=tiers,
        seed=args.seed,
        window=args.window,
        max_batch=args.max_batch,
        partition=args.partition,
        baseline=not args.no_baseline,
        failover=not args.no_failover,
        execution=args.execution,
        gateway_workers=args.workers,
        workers_compare=not args.no_workers_compare,
    )
    rows = []
    if "single" in payload:
        rows.append(("single", payload["single"]["throughput_qps"],
                     payload["single"]["failed"]))
    for s, phase in payload["clusters"].items():
        rows.append((f"{s}-shard", phase["throughput_qps"], phase["failed"]))
    if "failover" in payload:
        fo = payload["failover"]
        rows.append((f"{fo['shards']}-shard+failover",
                     fo["throughput_qps"], fo["failed"]))
    if "workers" in payload:
        wk = payload["workers"]
        rows.append((f"{wk['shards']}-shard+threads",
                     wk["threads"]["throughput_qps"],
                     wk["threads"]["failed"]))
        rows.append((f"{wk['shards']}-shard+processes",
                     wk["processes"]["throughput_qps"],
                     wk["processes"]["failed"]))
    print(format_table(["phase", "throughput_qps", "failed"], rows))
    if "workers" in payload:
        wk = payload["workers"]
        print(
            f"workers: {wk['cores']} core(s), process/thread speedup "
            f"{wk['speedup']:.2f}x, backend checksums "
            f"{'identical' if wk['checksums_identical'] else 'DIVERGED'}"
        )
    routed_items = _routed_phase_items(payload)
    if routed_items:
        print(format_table(
            ["routed phase", "eps_spent", "pruned_mean", "touched_mean",
             "delta_split_mean", "routed_queries"],
            [
                (
                    f"{name}-shard",
                    f"{phase['epsilon_spent']:.5g}",
                    f"{phase['shards_pruned_mean']:.2f}",
                    f"{phase['shards_touched_mean']:.2f}",
                    f"{phase['delta_split_mean']:.3f}",
                    int(phase["routed_queries"]),
                )
                for name, phase in routed_items
            ],
        ))
    if "failover" in payload:
        fo = payload["failover"]
        latency = fo["failover_latency_s"]
        print(
            f"failover: {fo['failovers']:.0f} event(s), "
            f"{fo['degraded_answers']:.0f} degraded answers, "
            f"detection-to-first-degraded "
            f"{'n/a' if latency is None else f'{latency * 1e3:.1f} ms'}"
        )
    if args.json:
        write_bench_json(args.json, "cluster_bench", payload)
        print(f"wrote {args.json}")
    if args.assert_healthy:
        phases = []
        if "single" in payload:
            phases.append(("single", payload["single"]))
        phases.extend(payload["clusters"].items())
        if "failover" in payload:
            phases.append(("failover", payload["failover"]))
        phases.extend(
            (f"routed:{name}", phase) for name, phase in routed_items
        )
        if "workers" in payload:
            wk = payload["workers"]
            phases.append(("workers:threads", wk["threads"]))
            phases.append(("workers:processes", wk["processes"]))
        unhealthy = [name for name, phase in phases if not _phase_healthy(phase)]
        failover_ok = True
        if "failover" in payload:
            fo = payload["failover"]
            failover_ok = fo["failovers"] >= 1 and fo["degraded_answers"] > 0
        # Both execution backends must produce the same bits from the
        # same seed; the ≥3x scaling claim is only checkable on hosts
        # with enough cores to express it.
        workers_ok = True
        if "workers" in payload:
            wk = payload["workers"]
            workers_ok = bool(wk["checksums_identical"])
            if int(wk["cores"]) >= 8 and wk["speedup"] is not None:
                workers_ok = workers_ok and float(wk["speedup"]) >= 3.0
        # Multi-shard routed phases must show the planner actually
        # engaging: queries routed, shards pruned, and a sane δ-split.
        routing_dead = [
            name
            for name, phase in routed_items
            if int(name) > 1
            and not (
                float(phase.get("routed_queries", 0.0)) > 0
                and float(phase.get("shards_pruned_mean", 0.0)) > 0.0
                and 0.0 < float(phase.get("delta_split_mean", 0.0)) <= 1.0
            )
        ]
        if unhealthy or not failover_ok or routing_dead or not workers_ok:
            print(
                "cluster-bench UNHEALTHY: "
                + (f"phases {unhealthy} failed or drifted; " if unhealthy else "")
                + ("" if failover_ok else "failover did not engage; ")
                + (
                    f"routing never engaged at shards {routing_dead}; "
                    if routing_dead
                    else ""
                )
                + (
                    ""
                    if workers_ok
                    else "workers phase diverged or under-scaled"
                ),
                file=sys.stderr,
            )
            print(_json.dumps(payload, indent=1, default=str), file=sys.stderr)
            return 1
        print(
            "cluster-bench healthy: all phases zero-drift"
            + (", failover engaged" if "failover" in payload else "")
            + (", routing engaged" if routed_items else "")
            + (", worker backends bit-identical" if "workers" in payload
               else "")
        )
    return 0


#: request_ttl of the overload profile's gateway.  Below the smallest
#: generated clock_jump (50 ms), so every armed jump expires exactly the
#: trade queued under it -- deterministic deadline storms.
_OVERLOAD_TTL_S = 0.045


def _overload_schedule(args: argparse.Namespace):
    """The overload drill: generated faults + a scheduled ladder sweep.

    The brownout sweep is explicit (2 -> 3 -> 4 -> back to 0 at fixed
    stream fractions) rather than drawn, so every rung of the ladder --
    widen, degrade, shed -- reliably engages on any seed.  The ladder is
    pinned at rung 0 from step 0: left to ``observe``, its position
    would follow the breaker-open fraction, which follows measured
    wall-clock latency -- and same-seed checksums must not depend on
    host speed.
    """
    from repro.chaos import FaultEvent, FaultSchedule

    base = FaultSchedule.generate(
        seed=args.seed, trades=args.trades, shards=args.shards,
        worker_process_kills=1 if args.execution == "processes" else 0,
        slow_shards=1,
        worker_stalls=1 if args.execution == "processes" else 0,
        clock_jumps=3,
    )
    sweep = [
        FaultEvent(step=int(args.trades * frac), kind="brownout_level",
                   target=level)
        for frac, level in ((0.0, 0), (0.45, 2), (0.52, 3), (0.60, 4),
                            (0.65, 0))
    ]
    merged = sorted(
        enumerate(list(base.events) + sweep),
        key=lambda pair: (pair[1].step, pair[0]),
    )
    return FaultSchedule(
        events=tuple(event for _, event in merged),
        seed=args.seed, trades=args.trades, shards=args.shards,
    )


def _run_chaos_once(args: argparse.Namespace, journal_path):
    """Build one fresh seeded stack and run the schedule through it."""
    from repro.analysis.metrics import make_workload
    from repro.chaos import (
        ChaosConfig,
        ChaosHarness,
        FaultSchedule,
        OverloadHarness,
    )
    from repro.durability.journal import TradeJournal
    from repro.serving import ServingConfig, Workload

    overload = args.profile == "overload"
    tiers = _parse_tiers(args.tiers)
    data = generate_citypulse(record_count=args.records)
    service = PrivateRangeCountingService.from_citypulse(
        data, args.index, k=args.devices, seed=args.seed, shards=args.shards
    )
    journal = TradeJournal(path=journal_path)
    service.broker.journal = journal
    config = ServingConfig(
        batch_window=0.0,
        max_batch=64,
        queue_depth=max(args.trades + 16, 1024),
        workers=1,
        enable_cache=False,
        request_ttl=_OVERLOAD_TTL_S if overload else None,
        execution=args.execution,
    )
    if overload:
        from repro.cluster.health import ShardBreakerBoard
        from repro.resilience import (
            BrownoutController,
            HedgePolicy,
            ManualClock,
        )
        from repro.serving.gateway import ServingGateway

        clock = ManualClock()
        broker = service.broker
        if hasattr(broker, "breakers"):
            broker.breakers = ShardBreakerBoard(clock=clock)
            broker.hedging = HedgePolicy()
        gateway = ServingGateway(
            broker=broker,
            config=config,
            brownout=BrownoutController(),
            clock=clock,
        )
    else:
        gateway = service.serve(config)
    values = service.truth.values
    workload = Workload(
        ranges=list(
            make_workload(values, num_queries=args.ranges,
                          seed=args.seed).ranges
        ),
        tiers=tiers,
    )
    if overload:
        schedule = _overload_schedule(args)
        harness: ChaosHarness = OverloadHarness(
            gateway, journal, schedule, workload,
            ChaosConfig(trades=args.trades, consumers=args.consumers),
        )
    else:
        schedule = FaultSchedule.generate(
            seed=args.seed, trades=args.trades, shards=args.shards,
            # Shard-worker SIGKILLs only make sense against the process
            # backend; the injector refuses them in threads mode.
            worker_process_kills=2 if args.execution == "processes" else 0,
        )
        harness = ChaosHarness(
            gateway, journal, schedule, workload,
            ChaosConfig(trades=args.trades, consumers=args.consumers),
        )
    try:
        return harness.run()
    finally:
        journal.close()


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.serving import write_bench_json

    try:
        _parse_tiers(args.tiers)
        if args.trades < 20:
            raise ValueError("--trades must be at least 20")
        if args.shards < 1:
            raise ValueError("--shards must be positive")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _run_chaos_once(args, args.journal)
    deterministic = None
    if args.check_determinism:
        rerun = _run_chaos_once(args, None)
        deterministic = rerun.checksum == report.checksum
    payload = report.to_payload()
    if deterministic is not None:
        payload["deterministic"] = deterministic
    rows = [
        (key, value)
        for key, value in payload.items()
        if key not in ("invariants", "recoveries_exact", "failures",
                       "overload")
    ]
    rows.extend(
        (f"invariant.{name}", ok)
        for name, ok in payload["invariants"].items()
    )
    overload = payload.get("overload")
    all_failures = list(payload.get("failures", ()))
    if overload is not None:
        rows.extend(
            (f"overload.{key}", value)
            for key, value in overload.items()
            if key not in ("invariants", "failures", "brownout_answers")
        )
        rows.extend(
            (f"overload.rung.{rung}", count)
            for rung, count in sorted(overload["brownout_answers"].items())
        )
        rows.extend(
            (f"invariant.{name}", ok)
            for name, ok in overload["invariants"].items()
        )
        all_failures.extend(overload["failures"])
    print(format_table(["metric", "value"], rows))
    for failure in all_failures:
        print(f"  violation: {failure}")
    if args.json:
        write_bench_json(args.json, "chaos", payload)
        print(f"wrote {args.json}")
    if args.assert_invariants:
        problems = list(all_failures)
        if deterministic is False:
            problems.append("same-seed reruns diverged")
        if overload is not None:
            # The drill must have *engaged*: a run where no deadline
            # expired, nothing shed, and no rung repriced would pass the
            # invariants vacuously.
            rungs = overload["brownout_answers"]
            for name, happened in (
                ("deadline expiries", overload["deadline_failures"] >= 1),
                ("sheds", overload["sheds"] >= 1),
                ("widen_alpha answers", rungs.get("widen_alpha", 0) > 0),
                ("degrade_delta answers",
                 rungs.get("degrade_delta", 0) > 0),
            ):
                if not happened:
                    problems.append(f"overload drill never engaged: {name}")
        if not report.all_passed or problems:
            print(
                "chaos UNHEALTHY: " + ("; ".join(problems) or ""),
                file=sys.stderr,
            )
            return 1
        print(
            "chaos healthy: all invariants held over "
            f"{payload['trades']} trades "
            f"({payload['worker_kills']} worker kills, "
            f"{payload['broker_recoveries']} broker recoveries, "
            f"{payload['degraded_answers']} degraded answers)"
            + (", overload drill engaged" if overload is not None else "")
            + (", deterministic across reruns" if deterministic else "")
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _parse_floor(text: str):
    floors = _parse_tiers(text)
    if len(floors) != 1:
        raise ValueError(f"expected one alpha:delta floor, got {text!r}")
    return floors[0]


def _cmd_stream_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving.gateway import ServingConfig, ServingGateway
    from repro.streaming import StreamingConfig, build_streaming_cluster
    from repro.streaming.bench import _workload_values

    try:
        requests = _read_requests_csv(args.requests_csv)
        floor = _parse_floor(args.floor)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster = build_streaming_cluster(StreamingConfig(
        shards=args.shards,
        devices_per_shard=args.devices_per_shard,
        window_epochs=args.window_epochs,
        floor=floor,
        seed=args.seed,
        nominal_records=max(args.arrivals * args.window_epochs, 1),
    ))
    workload_rng = np.random.default_rng(args.seed * 7_919 + 1)
    for epoch in range(args.epochs):
        values = _workload_values(workload_rng, args.arrivals, epoch)
        timestamps = epoch + np.arange(len(values)) / max(len(values), 1)
        cluster.ingest(values, timestamps)
        cluster.roll()
    snapshot = cluster.station.snapshot()
    print(
        f"ingested {args.epochs} epochs; serving window "
        f"{snapshot.window_id} ({snapshot.record_count} records, "
        f"{snapshot.node_count} samples)"
    )
    gateway = ServingGateway(
        cluster.broker,
        config=ServingConfig(
            batch_window=args.window,
            max_batch=args.max_batch,
            enable_cache=not args.no_cache,
            execution=args.execution,
            workers=args.workers,
        ),
        telemetry=cluster.telemetry,
    )
    dataset = cluster.config.dataset
    accountant = cluster.broker.epoch_accountant
    return _serve_and_tabulate(
        gateway,
        requests,
        cluster.broker.ledger,
        lambda served: (
            f"{served} requests served; window eps' "
            f"{accountant.window_spent(dataset, list(snapshot.live_epochs)):.6g} "
            f"(live total {accountant.live_total(dataset):.6g}, reclaimed "
            f"{accountant.reclaimed(dataset):.6g}), revenue "
            f"{cluster.broker.ledger.total_revenue():.6g}"
        ),
        args.metrics,
    )


def _cmd_stream_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serving import write_bench_json
    from repro.streaming import run_streaming_bench, streaming_bench_healthy

    try:
        tiers = [(t.alpha, t.delta) for t in _parse_tiers(args.tiers)]
        floor = _parse_floor(args.floor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = run_streaming_bench(
        epochs=args.epochs,
        shards=args.shards,
        devices_per_shard=args.devices_per_shard,
        window_epochs=args.window_epochs,
        arrivals_per_epoch=args.arrivals,
        ranges=args.ranges,
        tiers=tiers,
        floor=(floor.alpha, floor.delta),
        consumers=args.consumers,
        seed=args.seed,
    )
    print(format_table(
        ["epoch", "rate", "occupancy", "window_n", "buckets",
         "cache_hits", "live_eps", "reclaimed"],
        [
            (
                row["epoch"],
                f"{row['rate']:.4f}",
                row["occupancy"],
                row["window_records"],
                row["bucket_count"],
                row["cache_hits"],
                f"{row['live_epsilon']:.5g}",
                f"{row['reclaimed_total']:.5g}",
            )
            for row in payload["per_epoch"]
        ],
    ))
    print(
        f"{payload['completed']} answers ({payload['cache_hits']} cache "
        f"hits, {payload['stale_answers']} stale) at "
        f"{payload['throughput_qps']:.0f} qps; eps drift "
        f"{payload['epsilon_drift']:.3g}, epoch-ledger drift "
        f"{payload['epoch_epsilon_drift']:.3g}, reclaimed "
        f"{payload['epsilon_reclaimed']:.6g}"
    )
    if args.json:
        write_bench_json(args.json, "streaming_bench", payload)
        print(f"wrote {args.json}")
    if args.assert_healthy:
        problems = streaming_bench_healthy(payload)
        if problems:
            print(
                "stream-bench UNHEALTHY: " + "; ".join(problems),
                file=sys.stderr,
            )
            print(_json.dumps(payload, indent=1, default=str),
                  file=sys.stderr)
            return 1
        print(
            "stream-bench healthy: zero drift, cache fresh across rolls, "
            "steady-state epsilon bounded"
        )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.analysis.bench_compare import compare_bench, format_comparison
    from repro.serving.loadgen import read_bench_json

    baseline = read_bench_json(args.baseline)
    candidate = read_bench_json(args.candidate)
    comparison = compare_bench(
        baseline,
        candidate,
        rel_tol=args.rel_tol,
        timing_tol=args.timing_tol,
        ignore=tuple(args.ignore),
    )
    print(format_comparison(comparison, verbose=args.verbose))
    return 0 if comparison.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for bad usage
        return int(exc.code or 0)
    handlers = {
        "quote": _cmd_quote,
        "answer": _cmd_answer,
        "answer-batch": _cmd_answer_batch,
        "experiment": _cmd_experiment,
        "histogram": _cmd_histogram,
        "quantile": _cmd_quantile,
        "verify-claims": _cmd_verify_claims,
        "check-pricing": _cmd_check_pricing,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "cluster-serve": _cmd_cluster_serve,
        "cluster-bench": _cmd_cluster_bench,
        "chaos": _cmd_chaos,
        "stream-serve": _cmd_stream_serve,
        "stream-bench": _cmd_stream_bench,
        "lint": _cmd_lint,
        "bench-compare": _cmd_bench_compare,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
