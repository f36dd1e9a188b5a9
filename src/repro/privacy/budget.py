"""Privacy-budget accounting for the data broker.

The IoT network "entrusts the protection of data privacy to the data
broker" (Section II-A).  A broker that answers unlimited queries leaks
unbounded information, so production deployments cap the cumulative budget
per dataset.  :class:`BudgetAccountant` tracks, per dataset key, the ε′
spent by every released answer under sequential composition and refuses
releases that would overspend.

Beside each dataset's history it keeps a running Σ ε, folded in one
entry at a time in history order.  ``sequential_composition`` is a
left-to-right fold from 0.0, so the running total is bit-identical to
composing the history on every CPython, and a spend query or charge
costs O(1) however long the history grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Protocol, Tuple

from repro.errors import LedgerError, PrivacyBudgetExceededError

__all__ = ["BudgetAccountant", "BudgetEntry", "SpendRecord"]


class SpendRecord(Protocol):
    """Structural view of a journaled trade's privacy spend.

    Declared locally so the strictly-typed privacy layer never imports the
    durability package: any object exposing these attributes — in practice
    :class:`repro.durability.journal.JournalEntry` — can be replayed.
    """

    @property
    def answer_id(self) -> int: ...

    @property
    def kind(self) -> str: ...

    @property
    def dataset(self) -> str: ...

    @property
    def epsilon_prime(self) -> float: ...

    @property
    def label(self) -> str: ...


@dataclass(frozen=True, slots=True)
class BudgetEntry:
    """One recorded expenditure: the query label and the ε′ it consumed."""

    label: str
    epsilon: float


@dataclass
class BudgetAccountant:
    """Per-dataset sequential-composition ε ledger.

    Parameters
    ----------
    capacity:
        Maximum cumulative ε′ allowed per dataset key.  ``float('inf')``
        (the default) disables enforcement but still records spending, which
        is how the experiment harness audits total leakage.
    """

    capacity: float = float("inf")
    _spent: Dict[str, List[BudgetEntry]] = field(default_factory=dict)
    # Running Σ ε of each dataset's history, kept beside its entries so a
    # spend query is O(1): every settled batch asks for it at least twice.
    _totals: Dict[str, float] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        # Highest journal answer_id already folded into this accountant;
        # the idempotency floor for replay_journal (0 = nothing replayed).
        self._journal_high_water: int = 0
        self._load(self._spent)

    def _load(self, histories: "Mapping[str, Iterable[BudgetEntry]]") -> None:
        """Replace every history, folding each into a fresh running total."""
        self._spent, self._totals = {}, {}
        for dataset, entries in histories.items():
            self._record(dataset, entries)

    def _record(self, dataset: str, entries: "Iterable[BudgetEntry]") -> None:
        """The single write path: append ``entries`` and fold each one in.

        Each ε is added to the total on its own, in order, never as a
        pre-summed batch, so the total stays equal to
        ``sequential_composition`` over the history.
        """
        history = self._spent.setdefault(dataset, [])
        total = self._totals.get(dataset, 0.0)
        for entry in entries:
            history.append(entry)
            total += float(entry.epsilon)
        self._totals[dataset] = total

    def spent(self, dataset: str) -> float:
        """Total ε′ spent so far against ``dataset`` (O(1))."""
        return self._totals.get(dataset, 0.0)

    def remaining(self, dataset: str) -> float:
        """Budget headroom left for ``dataset``."""
        return self.capacity - self.spent(dataset)

    def can_afford(self, dataset: str, epsilon: float) -> bool:
        """Whether charging ``epsilon`` against ``dataset`` would fit."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        return self.spent(dataset) + epsilon <= self.capacity + 1e-12

    def charge(self, dataset: str, epsilon: float, label: str = "query") -> float:
        """Record an expenditure; returns the new cumulative total.

        Raises
        ------
        PrivacyBudgetExceededError
            If the charge would push the dataset past :attr:`capacity`.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not self.can_afford(dataset, epsilon):
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={epsilon:.6g} would exceed "
                f"capacity {self.capacity:.6g} (already spent "
                f"{self.spent(dataset):.6g})"
            )
        self._record(dataset, (BudgetEntry(label, epsilon),))
        return self.spent(dataset)

    def charge_many(
        self,
        dataset: str,
        epsilons: "List[float]",
        labels: "List[str]",
    ) -> None:
        """Record several expenditures at once.

        Affordability is checked once against the *sum* (sequential
        composition is additive), and the entries land in ``history`` in
        order, exactly as repeated :meth:`charge` calls would -- but with
        one affordability check per batch, which is what makes the
        broker's batched trading path cheap.  An empty batch
        (a settle of replays only) records nothing and adds no dataset
        key.

        Raises
        ------
        PrivacyBudgetExceededError
            If the combined charge would push the dataset past
            :attr:`capacity`; nothing is recorded in that case.
        """
        if len(epsilons) != len(labels):
            raise ValueError("epsilons and labels must be parallel lists")
        if not epsilons:
            return
        if any(epsilon < 0 for epsilon in epsilons):
            raise ValueError("epsilon must be non-negative")
        total = float(sum(epsilons))
        if not self.can_afford(dataset, total):
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={total:.6g} in bulk would "
                f"exceed capacity {self.capacity:.6g} (already spent "
                f"{self.spent(dataset):.6g})"
            )
        self._record(dataset, (
            BudgetEntry(label, epsilon)
            for label, epsilon in zip(labels, epsilons)
        ))

    def history(self, dataset: str) -> Tuple[BudgetEntry, ...]:
        """Immutable view of the expenditures recorded for ``dataset``."""
        return tuple(self._spent.get(dataset, ()))

    def datasets(self) -> Tuple[str, ...]:
        """Dataset keys with at least one recorded expenditure."""
        return tuple(self._spent)

    def reset(self, dataset: str) -> None:
        """Forget all spending for ``dataset`` (e.g. after data rotation)."""
        self._spent.pop(dataset, None)
        self._totals.pop(dataset, None)

    # ------------------------------------------------------------------ #
    # Durability: snapshot / restore / journal replay                    #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the full accounting state."""
        return {
            "capacity": self.capacity,
            "spent": {
                dataset: [[entry.label, entry.epsilon] for entry in entries]
                for dataset, entries in self._spent.items()
            },
            "journal_high_water": self._journal_high_water,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace this accountant's state with a :meth:`snapshot` copy."""
        spent: Mapping[str, Iterable[Tuple[str, float]]] = snapshot["spent"]
        self.capacity = float(snapshot["capacity"])
        self._load({
            dataset: [
                BudgetEntry(str(label), float(epsilon))
                for label, epsilon in entries
            ]
            for dataset, entries in spent.items()
        })
        self._journal_high_water = int(snapshot["journal_high_water"])

    def replay_journal(self, entries: "Iterable[SpendRecord]") -> int:
        """Re-apply journaled privacy spends not yet folded in.

        Entries at or below the journal high-water mark are skipped
        (idempotent), replay entries carry ε′ = 0 and record nothing, and
        — crucially — **capacity is not enforced**: the releases already
        happened, so recovery must record every journaled spend even if
        the dataset ends up over budget.  Under-counting ε after a crash
        would be a silent privacy leak; an over-budget ledger is loud and
        auditable.  Returns the number of entries applied as spends.
        """
        applied = 0
        previous = 0
        for entry in entries:
            if entry.answer_id <= previous:
                raise LedgerError(
                    f"journal replay out of order: answer_id "
                    f"{entry.answer_id} after {previous}"
                )
            previous = entry.answer_id
            if entry.answer_id <= self._journal_high_water:
                continue
            self._journal_high_water = entry.answer_id
            if entry.kind != "release":
                # Replays are post-processing: billed, but never charged
                # to the accountant, exactly as in live operation.
                continue
            self._record(
                entry.dataset, (BudgetEntry(entry.label, entry.epsilon_prime),)
            )
            applied += 1
        return applied
