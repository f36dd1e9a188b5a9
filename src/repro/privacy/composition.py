"""Composition rules for differential-privacy budgets.

The broker answers many queries against the same sample, so its accountant
needs composition algebra:

* **sequential** -- budgets over the same data add up;
* **parallel** -- budgets over disjoint data partitions take the maximum;
* **advanced** -- the Dwork–Rothblum–Vadhan bound trades a small failure
  probability ``δ_slack`` for a ``O(√q)`` total instead of ``O(q)``
  (extension beyond the paper, used by the budget accountant when enabled).
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "sequential_composition",
    "parallel_composition",
    "advanced_composition",
]


def _validate(epsilons: Sequence[float]) -> None:
    if len(epsilons) == 0:
        raise ValueError("need at least one epsilon")
    for eps in epsilons:
        if eps < 0:
            raise ValueError(f"epsilons must be non-negative, got {eps}")


def sequential_composition(epsilons: Sequence[float]) -> float:
    """Total budget of sequential releases on the same data: ``Σ ε_i``.

    A plain left-to-right fold from 0.0, the order the accountants' running
    totals add in.  Not ``sum``: from CPython 3.12 it compensates, which
    would change the last bits against those totals.
    """
    _validate(epsilons)
    total = 0.0
    for eps in epsilons:
        total += float(eps)
    return total


def parallel_composition(epsilons: Sequence[float]) -> float:
    """Total budget of releases on disjoint partitions: ``max ε_i``."""
    _validate(epsilons)
    return float(max(epsilons))


def advanced_composition(epsilon: float, count: int, delta_slack: float) -> float:
    """Advanced composition of ``count`` ε-DP releases.

    Returns the total ε of the ``(ε_total, δ_slack)``-DP guarantee:

        ε_total = √(2·count·ln(1/δ_slack))·ε + count·ε·(e^ε − 1)

    Valid for ``δ_slack ∈ (0, 1)``; tighter than sequential composition
    when ``count`` is large and ε small.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if count <= 0:
        raise ValueError("count must be a positive integer")
    if not 0.0 < delta_slack < 1.0:
        raise ValueError(f"delta_slack must be in (0, 1), got {delta_slack}")
    return (
        math.sqrt(2.0 * count * math.log(1.0 / delta_slack)) * epsilon
        + count * epsilon * math.expm1(epsilon)
    )
