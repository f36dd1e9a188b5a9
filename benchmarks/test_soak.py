"""Soak bench: book-keeping cost per batch stays flat as history grows.

Short benches hide per-trade costs that grow with the books.  This bench
pushes a long run of distinct-range trades through the batched trading
path with a file-backed write-ahead journal, and times the book-keeping
stage of every batch -- journal append plus settle, accountant charge
and ledger bill -- from the brokers' own stage timers:

* ``broker.batch.charge_s`` on a single :class:`DataBroker` (k = 64
  devices, the 17,568-record CityPulse surrogate, batch width 64,
  unlimited budget), over ≥ 10^6 trades;
* ``cluster.charge_s`` on a 4-shard thread-backed ``ClusterBroker``
  over ≥ 10^5 trades.

The claim: book-keeping cost per batch over the last 10^4 trades is
within 1.5x of the first 10^4's.  A book that re-summed its history on
every charge fails it, at full scale and in the smoke run alike.

A shared host's speed drifts by up to ~1.5x over seconds, so a bare
early/late timing ratio can fail on a flat book.  Right after every
batch the bench therefore settles the same trades into *empty* books
(a fresh journal, policy, accountant and ledger, plus the JSON encoding
of the journal lines) and times that too.  The asserted growth is the
late/early ratio of the medians of ``books / fresh books`` per batch:
host speed cancels, and only cost that grows with history remains.  The
raw early and late medians are reported beside it.  Peak RSS and bytes
per trade (journal file and resident memory) are measured and reported,
not bounded.

A full-scale run writes ``BENCH_soak.json`` with its provenance.  Set
``REPRO_BENCH_SMOKE=1`` for a 65,536-trade run per broker with the
same assertion over windows of 2,048 trades; a smoke run writes nothing
under ``results/``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.serving.telemetry import MetricsRegistry

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

DEVICES = 64
DATASET = "ozone"
WIDTH = 64
SINGLE_TRADES = 65_536 if SMOKE else 1_000_000
CLUSTER_TRADES = 65_536 if SMOKE else 100_032
SHARDS = 4
#: Trades in each compared window (the first and the last of the run).
#: The smoke run's windows are shorter, so its two windows lie far apart.
WINDOW_TRADES = 2_048 if SMOKE else 10_000
#: Late book-keeping cost per batch may be at most this multiple of early.
GROWTH_BOUND = 1.5
CONSUMERS = 4
TIERS = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.6),
    AccuracySpec(alpha=0.2, delta=0.5),
)
SEED = 17


def _rss_bytes() -> int:
    """Current resident set size (0 where ``/proc`` is unavailable)."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _provenance() -> Dict[str, Any]:
    root = Path(__file__).resolve().parent.parent

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "smoke": SMOKE,
        "config": {
            "devices": DEVICES,
            "batch_width": WIDTH,
            "single_trades": SINGLE_TRADES,
            "cluster_trades": CLUSTER_TRADES,
            "shards": SHARDS,
            "window_trades": WINDOW_TRADES,
            "growth_bound": GROWTH_BOUND,
            "seed": SEED,
        },
    }


def _fresh_books_s(answers: "List[Any]", consumer: str) -> float:
    """Seconds to journal, settle, charge and bill ``answers`` afresh.

    The same steps as the broker's book-keeping stage, on empty books,
    so the time tracks the host's speed and not the trade history.
    """
    records = [
        dict(kind="release", consumer=consumer, dataset=DATASET,
             low=a.query.low, high=a.query.high, alpha=a.spec.alpha,
             delta=a.spec.delta, epsilon_prime=a.plan.epsilon_prime,
             price=a.price, store_version=0,
             label=f"{consumer}:[{a.query.low},{a.query.high}]")
        for a in answers
    ]
    t0 = time.perf_counter()
    entries = TradeJournal().append_many(records)
    "".join(json.dumps(e.to_payload(), sort_keys=True) + "\n" for e in entries)
    policy = BrokerPolicy()
    for record in records:
        policy.settle(consumer, record["epsilon_prime"])
    BudgetAccountant().charge_many(
        DATASET, [r["epsilon_prime"] for r in records],
        [r["label"] for r in records])
    BillingLedger().record_many([
        {key: r[key] for key in ("consumer", "dataset", "alpha", "delta",
                                 "price", "epsilon_prime")}
        for r in records
    ])
    return time.perf_counter() - t0


def _soak(broker: Any, journal_path: Path, trades: int, timer: str,
          values: np.ndarray, selectivity: "tuple[float, float]"
          ) -> Dict[str, Any]:
    """Drive ``trades`` distinct-range trades; time each batch's books."""
    broker.telemetry = MetricsRegistry()
    broker.journal = TradeJournal(path=journal_path)
    books = broker.telemetry.histogram(timer)
    ordered = np.sort(values)
    rng = np.random.default_rng(SEED)
    low_sel, high_sel = selectivity
    batches = -(-trades // WIDTH)
    book_s: List[float] = []
    fresh_s: List[float] = []
    batch_s: List[float] = []
    rss_before = _rss_bytes()
    started = time.perf_counter()
    for b in range(batches):
        u = rng.random(2 * WIDTH)
        width = low_sel + (high_sel - low_sel) * u[0::2]
        start = (1.0 - width) * u[1::2]
        lows = np.quantile(ordered, start)
        highs = np.quantile(ordered, start + width)
        queries = [
            RangeQuery(low=float(lo), high=float(hi), dataset=DATASET)
            for lo, hi in zip(lows, highs)
        ]
        consumer = f"c{b % CONSUMERS}"
        booked = books.sum
        t0 = time.perf_counter()
        answers = broker.answer_batch(queries, TIERS[b % len(TIERS)],
                                      consumer)
        batch_s.append(time.perf_counter() - t0)
        book_s.append(books.sum - booked)
        fresh_s.append(_fresh_books_s(answers, consumer))
    elapsed = time.perf_counter() - started
    rss_after = _rss_bytes()
    broker.journal.close()

    traded = batches * WIDTH
    assert books.count == batches, f"{timer} must time every batch"
    assert len(broker.journal) == traded
    assert len(broker.ledger) == traded
    assert len(broker.accountant.history(broker.dataset)) == traded
    window = -(-WINDOW_TRADES // WIDTH)

    def early_late(series: List[float]) -> "tuple[float, float]":
        return (statistics.median(series[:window]),
                statistics.median(series[-window:]))

    early, late = early_late(
        [book / fresh for book, fresh in zip(book_s, fresh_s)])
    book_early, book_late = early_late(book_s)
    fresh_early, fresh_late = early_late(fresh_s)
    batch_early, batch_late = early_late(batch_s)
    return {
        "trades": traded,
        "batches": batches,
        "timer": timer,
        "window_batches": window,
        "book_growth": late / early,
        "book_per_fresh_early_p50": early,
        "book_per_fresh_late_p50": late,
        "book_ms_early_p50": book_early * 1e3,
        "book_ms_late_p50": book_late * 1e3,
        "book_raw_growth": book_late / book_early,
        "fresh_books_ms_early_p50": fresh_early * 1e3,
        "fresh_books_ms_late_p50": fresh_late * 1e3,
        "batch_ms_early_p50": batch_early * 1e3,
        "batch_ms_late_p50": batch_late * 1e3,
        "book_share": sum(book_s) / sum(batch_s),
        "throughput_qps": traded / elapsed,
        "elapsed_s": elapsed,
        "journal_bytes_per_trade": journal_path.stat().st_size / traded,
        "rss_bytes_per_trade": (
            (rss_after - rss_before) / traded if rss_before else None
        ),
        "spent": broker.accountant.spent(broker.dataset),
    }


@pytest.fixture(scope="module")
def soak_results(save_json):
    """Collects both phases; a full-scale run writes ``BENCH_soak.json``."""
    results: Dict[str, Any] = {}
    yield results
    if not SMOKE and results:
        save_json("soak", {"provenance": _provenance(),
                           "peak_rss_mb": _peak_rss_mb(), **results})


def _report(name: str, row: Dict[str, Any]) -> None:
    print(
        f"\n{name}: {row['trades']} trades, books/fresh p50 "
        f"{row['book_per_fresh_early_p50']:.2f} -> "
        f"{row['book_per_fresh_late_p50']:.2f} "
        f"({row['book_growth']:.2f}x; raw {row['book_ms_early_p50']:.3f} -> "
        f"{row['book_ms_late_p50']:.3f} ms per batch), "
        f"{row['throughput_qps']:.0f} qps, peak RSS so far "
        f"{_peak_rss_mb():.0f} MB"
    )


def test_single_broker_books_stay_flat(citypulse, tmp_path, soak_results):
    values = citypulse.values(DATASET)
    broker = PrivateRangeCountingService.from_values(
        values, k=DEVICES, dataset=DATASET, seed=SEED,
    ).broker
    broker.base_station.ensure_rate(
        max(broker.planner.required_rate(spec) for spec in TIERS))
    row = _soak(broker, tmp_path / "single.jsonl", SINGLE_TRADES,
                "broker.batch.charge_s", values, (0.05, 0.9))
    soak_results["single"] = row
    _report("single", row)
    assert row["trades"] >= SINGLE_TRADES
    assert row["book_growth"] <= GROWTH_BOUND, row


def test_cluster_books_stay_flat(citypulse, tmp_path, soak_results):
    values = citypulse.values(DATASET)
    broker = PrivateRangeCountingService.from_values(
        values, k=DEVICES, dataset=DATASET, seed=SEED, shards=SHARDS,
        partition="range-sharded",
    ).broker
    row = _soak(broker, tmp_path / "cluster.jsonl", CLUSTER_TRADES,
                "cluster.charge_s", values, (0.02, 0.3))
    soak_results["cluster"] = row
    _report("cluster", row)
    assert row["trades"] >= CLUSTER_TRADES
    assert row["book_growth"] <= GROWTH_BOUND, row
