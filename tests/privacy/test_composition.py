"""Unit tests for composition rules."""

from __future__ import annotations

import math

import pytest

from repro.privacy.composition import (
    advanced_composition,
    parallel_composition,
    sequential_composition,
)


class TestSequential:
    def test_sums(self):
        assert sequential_composition([0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_single(self):
        assert sequential_composition([0.5]) == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sequential_composition([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sequential_composition([0.1, -0.2])

    def test_adds_left_to_right_without_compensation(self):
        # Each 1e-16 is under half an ulp of 1.0, so a left fold drops both;
        # compensated summation (math.fsum, ``sum`` on CPython >= 3.12)
        # keeps them.  The accountants' running totals fold left to right.
        epsilons = [1.0, 1e-16, 1e-16]
        assert math.fsum(epsilons) != 1.0
        assert sequential_composition(epsilons) == 1.0


class TestParallel:
    def test_max(self):
        assert parallel_composition([0.1, 0.5, 0.3]) == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parallel_composition([])


class TestAdvanced:
    def test_formula(self):
        eps, q, slack = 0.1, 100, 1e-6
        expected = math.sqrt(2 * q * math.log(1 / slack)) * eps + q * eps * (
            math.exp(eps) - 1
        )
        assert advanced_composition(eps, q, slack) == pytest.approx(expected)

    def test_beats_sequential_for_many_small_queries(self):
        eps, q, slack = 0.01, 10_000, 1e-9
        assert advanced_composition(eps, q, slack) < sequential_composition(
            [eps] * q
        )

    def test_rejects_bad_slack(self):
        with pytest.raises(ValueError):
            advanced_composition(0.1, 10, 0.0)
        with pytest.raises(ValueError):
            advanced_composition(0.1, 10, 1.0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            advanced_composition(0.1, 0, 0.1)
