"""The single-source shortest-path budget (Problem 2).

The paper's central resource model: one SSSP computation is the unit of
cost, and an algorithm solving the budgeted path-cover problem with
parameter ``m`` may perform **exactly 2m** SSSP computations in total
across the two snapshots (Table 1 shows how each approach splits them
between candidate generation and the top-k phase).

:class:`SPBudget` makes that model *enforced and auditable* rather than
advisory: every distance computation in the selection and top-k code paths
goes through :meth:`SPBudget.charge`, overdrafts raise
:class:`BudgetExceededError`, and the per-phase ledger lets the test suite
assert that measured costs equal Table 1's formulas exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple


class BudgetExceededError(RuntimeError):
    """Raised when a charge would push spending past the SSSP budget."""


@dataclass(frozen=True)
class ChargeRecord:
    """One ledger entry: ``count`` SSSPs on ``snapshot`` during ``phase``.

    Immutable, so a budget records each distinct entry once and its
    ledger repeats references to it.
    """

    phase: str
    snapshot: str
    count: int


class SPBudget:
    """An enforcing counter of single-source shortest-path computations.

    Parameters
    ----------
    limit:
        Maximum total number of SSSP computations (the paper's ``2m``).
        ``None`` disables enforcement (used by the unbudgeted Incidence
        baseline, which still benefits from the audit trail).

    Examples
    --------
    >>> budget = SPBudget(4)
    >>> budget.charge("generation", "g1", 2)
    >>> budget.spent
    2
    >>> budget.remaining
    2
    >>> budget.charge("topk", "g2", 3)
    Traceback (most recent call last):
        ...
    repro.core.budget.BudgetExceededError: ...
    """

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"budget limit must be non-negative, got {limit}")
        self.limit = limit
        self._ledger: List[ChargeRecord] = []
        # One shared record per distinct (phase, snapshot, count).
        self._records: Dict[Tuple[str, str, int], ChargeRecord] = {}
        self._spent = 0

    # ------------------------------------------------------------------
    @property
    def spent(self) -> int:
        """Total SSSP computations charged so far."""
        return self._spent

    @property
    def remaining(self) -> int:
        """SSSPs still affordable (a large sentinel when unenforced)."""
        if self.limit is None:
            return 2**62
        return self.limit - self._spent

    def can_afford(self, count: int) -> bool:
        """True if ``count`` more SSSPs fit in the budget."""
        return count <= self.remaining

    def charge(self, phase: str, snapshot: str, count: int = 1) -> None:
        """Record ``count`` SSSP computations.

        Parameters
        ----------
        phase:
            Free-form phase label — the paper's two phases are
            ``"generation"`` (candidate endpoint selection) and
            ``"topk"`` (shortest paths from the candidates).
        snapshot:
            Which snapshot was traversed (``"g1"`` or ``"g2"``) — Table 1
            distinguishes them (dispersion only pays on ``G_t1`` during
            generation, for example).
        count:
            Number of SSSPs, >= 1.

        Raises
        ------
        BudgetExceededError
            If the charge would exceed :attr:`limit`.  The charge is not
            recorded in that case.
        """
        if count < 1:
            raise ValueError(f"charge count must be >= 1, got {count}")
        if not self.can_afford(count):
            raise BudgetExceededError(
                f"charging {count} SSSP(s) in phase {phase!r} would spend "
                f"{self._spent + count} > limit {self.limit}"
            )
        key = (phase, snapshot, count)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = ChargeRecord(phase, snapshot, count)
        self._ledger.append(record)
        self._spent += count

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def by_phase(self) -> Dict[str, int]:
        """Total SSSPs per phase label."""
        totals: Counter = Counter()
        for rec in self._ledger:
            totals[rec.phase] += rec.count
        return dict(totals)

    def by_snapshot(self) -> Dict[str, int]:
        """Total SSSPs per snapshot label."""
        totals: Counter = Counter()
        for rec in self._ledger:
            totals[rec.snapshot] += rec.count
        return dict(totals)

    def ledger(self) -> Tuple[ChargeRecord, ...]:
        """The raw charge records, in order."""
        return tuple(self._ledger)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        limit = "∞" if self.limit is None else self.limit
        return f"SPBudget(spent={self._spent}, limit={limit})"
