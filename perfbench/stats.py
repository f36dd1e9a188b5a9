"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples a percentile must leave above it before it may be reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (0..100) of ``samples`` and the sample count.

    Linear interpolation between order statistics.  Refuses a percentile
    that leaves fewer than :data:`MIN_BEYOND` samples above it, because a
    tail read from a handful of points is noise.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    count = len(samples)
    beyond = count * (100.0 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} over {count} samples leaves {beyond:.1f} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    ordered = sorted(samples)
    rank = q / 100.0 * (count - 1)
    lo = int(rank)
    hi = min(lo + 1, count - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac, count


def late_window(done_times: Sequence[float], share: float = 0.1
                ) -> Tuple[int, float]:
    """Completions and seconds of the window of the last ``share`` of them.

    With ``m`` the last ``share`` of ``N`` completions (sorted by time),
    the window opens at the completion just before them and closes at the
    last one, so ``m`` completions fall inside it.
    """
    count = len(done_times)
    m = int(count * share)
    if m < 1 or m >= count:
        raise ValueError(
            f"need more than {1 / share:g} completions, got {count}"
        )
    ordered = sorted(done_times)
    span = ordered[-1] - ordered[count - m - 1]
    if span <= 0.0:
        raise ValueError("the late window has zero duration")
    return m, span



def decile_growth(durations: Sequence[float]) -> float:
    """Mean of the last tenth of ``durations`` over the mean of the first."""
    tenth = len(durations) // 10
    if tenth < 1:
        raise ValueError("need at least 10 durations")
    first = statistics.fmean(durations[:tenth])
    last = statistics.fmean(durations[-tenth:])
    if first <= 0.0:
        raise ValueError("first decile has zero duration")
    return last / first


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares ``y = a + b·x``; returns ``(a, b)``."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two paired points")
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("all x values are equal; slope is undefined")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return my - slope * mx, slope


def _log_binom_cdf(k: int, n: int, p: float) -> float:
    """log P[X <= k] for X ~ Binomial(n, p), summed in log space."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 0.0 if k >= n else -math.inf
    if k >= n:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)

    def log_sum(indices: range) -> float:
        terms = [
            lg_n - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
            for i in indices
        ]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))

    # Sum whichever tail has fewer terms; hit rates sit near 1, so the
    # upper tail is usually the short one.
    if k + 1 <= n - k:
        return log_sum(range(k + 1))
    upper = log_sum(range(k + 1, n + 1))
    if upper >= 0.0:
        return -math.inf
    return math.log(-math.expm1(upper))


def clopper_pearson_upper(successes: int, trials: int,
                          confidence: float = 0.999) -> float:
    """One-sided Clopper–Pearson upper bound on a binomial proportion.

    The largest ``p`` with ``P[X <= successes | p] >= 1 - confidence``,
    found by bisection on the exact binomial CDF.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials and trials >= 1")
    if successes == trials:
        return 1.0
    target = math.log(1.0 - confidence)
    lo, hi = successes / trials, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _log_binom_cdf(successes, trials, mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)
