"""Unit tests for the budget accountant."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import PrivacyBudgetExceededError
from repro.privacy import budget
from repro.privacy.budget import BudgetAccountant, BudgetEntry
from repro.privacy.composition import sequential_composition


class TestBudgetAccountant:
    def test_fresh_accountant_spends_nothing(self):
        acc = BudgetAccountant()
        assert acc.spent("ozone") == 0.0

    def test_charge_accumulates(self):
        acc = BudgetAccountant()
        acc.charge("ozone", 0.1)
        acc.charge("ozone", 0.2)
        assert acc.spent("ozone") == pytest.approx(0.3)

    def test_datasets_isolated(self):
        acc = BudgetAccountant()
        acc.charge("ozone", 0.1)
        acc.charge("no2", 0.5)
        assert acc.spent("ozone") == pytest.approx(0.1)
        assert acc.spent("no2") == pytest.approx(0.5)

    def test_capacity_enforced(self):
        acc = BudgetAccountant(capacity=0.25)
        acc.charge("ozone", 0.2)
        with pytest.raises(PrivacyBudgetExceededError):
            acc.charge("ozone", 0.1)
        # The failed charge must not have been recorded.
        assert acc.spent("ozone") == pytest.approx(0.2)

    def test_exact_capacity_allowed(self):
        acc = BudgetAccountant(capacity=0.3)
        acc.charge("ozone", 0.1)
        acc.charge("ozone", 0.2)
        assert acc.remaining("ozone") == pytest.approx(0.0)

    def test_can_afford(self):
        acc = BudgetAccountant(capacity=1.0)
        acc.charge("d", 0.7)
        assert acc.can_afford("d", 0.3)
        assert not acc.can_afford("d", 0.31)

    def test_remaining_infinite_by_default(self):
        acc = BudgetAccountant()
        assert acc.remaining("d") == float("inf")

    def test_history_and_labels(self):
        acc = BudgetAccountant()
        acc.charge("d", 0.1, label="q1")
        acc.charge("d", 0.2, label="q2")
        history = acc.history("d")
        assert [e.label for e in history] == ["q1", "q2"]
        assert [e.epsilon for e in history] == [0.1, 0.2]

    def test_datasets_listing(self):
        acc = BudgetAccountant()
        acc.charge("a", 0.1)
        acc.charge("b", 0.1)
        assert set(acc.datasets()) == {"a", "b"}

    def test_reset(self):
        acc = BudgetAccountant()
        acc.charge("d", 0.4)
        acc.reset("d")
        assert acc.spent("d") == 0.0

    def test_rejects_negative_charge(self):
        acc = BudgetAccountant()
        with pytest.raises(ValueError):
            acc.charge("d", -0.1)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            BudgetAccountant(capacity=-1.0)


#: Awkward ε′ values whose float sum depends on the order of the adds.
EPSILONS = [0.1, 1 / 3, 2e-9, 0.7, 1e-17, 0.05, 0.2]


def _spend(answer_id, kind="release", dataset="d", epsilon=0.1):
    """A journaled spend as ``replay_journal`` reads it."""
    return SimpleNamespace(
        answer_id=answer_id, kind=kind, dataset=dataset,
        epsilon_prime=epsilon if kind == "release" else 0.0,
        label=f"q{answer_id}",
    )


def assert_total_is_composed_history(acc, datasets=("d", "e")):
    """``spent`` must be bit-identical to composing the history."""
    for dataset in datasets:
        entries = [e.epsilon for e in acc.history(dataset)]
        expected = sequential_composition(entries) if entries else 0.0
        assert acc.spent(dataset) == expected, dataset
        assert type(acc.spent(dataset)) is float


class TestRunningTotal:
    def test_after_charge(self):
        acc = BudgetAccountant()
        assert_total_is_composed_history(acc)
        for i in range(40):
            acc.charge("d", EPSILONS[i % len(EPSILONS)])
            assert_total_is_composed_history(acc)

    def test_after_charge_many(self):
        acc = BudgetAccountant()
        acc.charge_many("d", [], [])
        assert acc.datasets() == ()
        assert_total_is_composed_history(acc)
        for i in range(1, 8):
            batch = [EPSILONS[(i * j) % len(EPSILONS)] for j in range(i)]
            acc.charge_many("d", batch, [f"q{j}" for j in range(i)])
            acc.charge_many("d", [], [])
            assert_total_is_composed_history(acc)
        acc.charge("e", 0.3)
        acc.charge_many("e", EPSILONS, ["q"] * len(EPSILONS))
        assert_total_is_composed_history(acc)

    def test_refused_charge_many_leaves_total(self):
        acc = BudgetAccountant(capacity=1.0)
        acc.charge_many("d", [0.4, 0.5], ["a", "b"])
        with pytest.raises(PrivacyBudgetExceededError):
            acc.charge_many("d", [0.05, 0.06], ["c", "e"])
        assert acc.spent("d") == 0.4 + 0.5
        assert_total_is_composed_history(acc)

    def test_after_replay_journal(self):
        acc = BudgetAccountant(capacity=0.5)
        acc.charge("d", 1 / 3)
        spends = [
            _spend(1, epsilon=0.7),  # past capacity: recovery still records
            _spend(2, kind="replay"),
            _spend(3, dataset="e", epsilon=2e-9),
            _spend(4, epsilon=1e-17),
            _spend(5, kind="replay", dataset="e"),
        ]
        assert acc.replay_journal(spends) == 3
        assert_total_is_composed_history(acc)
        # Idempotent: a second pass is skipped entry by entry.
        assert acc.replay_journal(spends) == 0
        assert_total_is_composed_history(acc)
        assert acc.replay_journal(spends + [_spend(6, epsilon=0.05)]) == 1
        assert_total_is_composed_history(acc)
        assert acc.spent("d") > acc.capacity

    def test_replay_only_journal_adds_no_dataset(self):
        acc = BudgetAccountant()
        assert acc.replay_journal([_spend(1, kind="replay")]) == 0
        assert acc.datasets() == ()
        assert_total_is_composed_history(acc)

    def test_after_restore(self):
        acc = BudgetAccountant()
        for i, epsilon in enumerate(EPSILONS * 3):
            acc.charge("d" if i % 3 else "e", epsilon)
        twin = BudgetAccountant()
        twin.charge("d", 5.0)
        twin.restore(acc.snapshot())
        assert_total_is_composed_history(twin)
        assert twin.spent("d") == acc.spent("d")
        assert twin.snapshot() == acc.snapshot()
        twin.restore(BudgetAccountant().snapshot())
        assert twin.spent("d") == 0.0
        assert_total_is_composed_history(twin)

    def test_after_reset(self):
        acc = BudgetAccountant()
        acc.charge_many("d", EPSILONS, ["q"] * len(EPSILONS))
        acc.reset("d")
        assert_total_is_composed_history(acc)
        acc.charge("d", 0.25)
        assert acc.spent("d") == 0.25
        assert_total_is_composed_history(acc)

    def test_spent_passed_to_constructor(self):
        history = {
            "d": [BudgetEntry("q", epsilon) for epsilon in EPSILONS],
            "e": [],
        }
        acc = BudgetAccountant(_spent=history)
        assert_total_is_composed_history(acc)
        acc.charge("d", 0.01)
        assert_total_is_composed_history(acc)


class _UnwalkableList(list):
    """A history that may grow but must never be walked."""

    def __iter__(self):
        raise AssertionError("the accountant walked its history")


class TestConstantTimeBooks:
    def test_spend_queries_and_charges_never_walk_history(self, monkeypatch):
        acc = BudgetAccountant(capacity=1e9)
        acc.charge_many("d", [1e-4] * 100_000, ["q"] * 100_000)
        before = acc.spent("d")
        acc._spent["d"] = _UnwalkableList(acc._spent["d"])

        def refuse(epsilons):
            raise AssertionError("the accountant re-composed its history")

        monkeypatch.setattr(budget, "sequential_composition", refuse,
                            raising=False)
        assert acc.spent("d") == before
        assert acc.remaining("d") == 1e9 - before
        assert acc.can_afford("d", 0.5)
        acc.charge_many("d", [0.25, 0.5], ["a", "b"])
        acc.charge("d", 0.125)
        assert acc.spent("d") == before + 0.25 + 0.5 + 0.125
        assert len(acc._spent["d"]) == 100_003
