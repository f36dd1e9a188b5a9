"""Unit tests for the per-epoch budget accountant and its expiry math."""

from __future__ import annotations

import pytest

from repro.errors import PrivacyBudgetExceededError, StreamingError
from repro.privacy.composition import sequential_composition
from repro.streaming.accounting import EpochBudgetAccountant


class TestCharging:
    def test_window_charge_hits_every_covered_epoch(self):
        acct = EpochBudgetAccountant()
        acct.charge_window("d", [0, 1, 2], 0.1, label="q0")
        for epoch in (0, 1, 2):
            assert acct.spent("d", epoch) == pytest.approx(0.1)
        assert acct.spent("d", 3) == 0.0

    def test_window_spent_is_max_not_sum(self):
        # A record lives in exactly one epoch, so the worst-off record's
        # leakage is the largest per-epoch ledger, not their sum.
        acct = EpochBudgetAccountant()
        acct.charge_window("d", [0, 1], 0.1)
        acct.charge_window("d", [1, 2], 0.2)
        assert acct.spent("d", 1) == pytest.approx(0.3)
        assert acct.window_spent("d", [0, 1, 2]) == pytest.approx(0.3)

    def test_capacity_enforced_per_epoch(self):
        acct = EpochBudgetAccountant(capacity=0.25)
        acct.charge_window("d", [0, 1], 0.2)
        # Epoch 1 already at 0.2; another 0.1 would breach 0.25 there,
        # even though epoch 2 is untouched.
        with pytest.raises(PrivacyBudgetExceededError):
            acct.charge_window("d", [1, 2], 0.1)
        # Nothing was recorded by the failed (atomic) charge.
        assert acct.spent("d", 2) == 0.0
        assert acct.spent("d", 1) == pytest.approx(0.2)

    def test_charge_rejects_expired_epoch(self):
        acct = EpochBudgetAccountant()
        acct.charge_window("d", [0, 1], 0.1)
        acct.expire_before("d", 2)
        with pytest.raises(StreamingError):
            acct.charge_window("d", [1, 2], 0.1)

    def test_rejects_negative_epsilon(self):
        acct = EpochBudgetAccountant()
        with pytest.raises(ValueError):
            acct.charge_window("d", [0], -0.1)

    def test_spend_equals_composed_history_exactly(self):
        # The running totals must be bit-identical to sequentially
        # composing each ledger's history, also across expiry.
        acct = EpochBudgetAccountant()
        epsilons = [0.1, 1 / 3, 2e-9, 0.7, 1e-17, 0.05]
        for i in range(60):
            epoch = i // 10
            acct.charge_window(
                "d", [max(0, epoch - 1), epoch], epsilons[i % len(epsilons)]
            )
        acct.expire_before("d", 2)
        for epoch in range(6):
            entries = [e.epsilon for e in acct.history("d", epoch)]
            assert acct.spent("d", epoch) == (
                sequential_composition(entries) if entries else 0.0
            )
        assert acct.live_total("d") == float(sum(
            sequential_composition([e.epsilon for e in acct.history("d", ep)])
            for ep in acct.live_epochs("d")
        ))


class TestExpiry:
    def test_expiry_reclaims_departed_budget(self):
        acct = EpochBudgetAccountant()
        acct.charge_window("d", [0, 1, 2], 0.1)
        reclaimed = acct.expire_before("d", 2)
        assert reclaimed == pytest.approx(0.2)  # epochs 0 and 1
        assert acct.live_epochs("d") == (2,)
        assert acct.live_total("d") == pytest.approx(0.1)
        assert acct.reclaimed("d") == pytest.approx(0.2)

    def test_expiry_is_idempotent_and_monotone(self):
        acct = EpochBudgetAccountant()
        acct.charge_window("d", [0, 1, 2, 3], 0.1)
        acct.expire_before("d", 2)
        assert acct.expire_before("d", 2) == 0.0
        # The floor never moves backwards.
        acct.expire_before("d", 1)
        assert acct.floor("d") == 2

    def test_steady_state_spend_is_bounded(self):
        # Simulate a long stream: every epoch, one release charges the
        # live W epochs, then the departed epoch expires.  The live total
        # must plateau instead of growing with stream length.
        W = 4
        acct = EpochBudgetAccountant()
        totals = []
        for epoch in range(20):
            live = list(range(max(0, epoch - W + 1), epoch + 1))
            acct.charge_window("d", live, 0.1, label=f"e{epoch}")
            acct.expire_before("d", epoch - W + 1)
            totals.append(acct.live_total("d"))
        # Triangular-sum plateau: 0.1 * (1 + 2 + ... + W).
        plateau = 0.1 * W * (W + 1) / 2
        assert totals[-1] == pytest.approx(plateau)
        assert max(totals[2 * W:]) == pytest.approx(plateau)
        # And the cumulative reclaimed budget keeps growing -- spend is
        # recycled, not hoarded.
        assert acct.reclaimed("d") > 0

    def test_expired_epoch_reads_zero(self):
        acct = EpochBudgetAccountant()
        acct.charge_window("d", [0], 0.5)
        acct.expire_before("d", 1)
        assert acct.spent("d", 0) == 0.0
        assert acct.history("d", 0) == ()


class TestAffordability:
    def test_can_afford_checks_every_epoch(self):
        acct = EpochBudgetAccountant(capacity=0.3)
        acct.charge_window("d", [1], 0.25)
        assert acct.can_afford("d", [0], 0.1)
        assert not acct.can_afford("d", [0, 1], 0.1)

    def test_remaining_headroom(self):
        acct = EpochBudgetAccountant(capacity=1.0)
        acct.charge_window("d", [0], 0.4)
        assert acct.remaining("d", 0) == pytest.approx(0.6)

    def test_datasets_listing(self):
        acct = EpochBudgetAccountant()
        acct.charge_window("a", [0], 0.1)
        acct.charge_window("b", [0], 0.1)
        assert acct.datasets() == ("a", "b")
