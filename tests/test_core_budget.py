"""Unit tests for repro.core.budget.SPBudget."""

import dataclasses

import pytest

from repro.core.budget import BudgetExceededError, ChargeRecord, SPBudget


class TestBasics:
    def test_initial_state(self):
        b = SPBudget(10)
        assert b.spent == 0
        assert b.remaining == 10
        assert b.limit == 10

    def test_charge_accumulates(self):
        b = SPBudget(10)
        b.charge("generation", "g1", 3)
        b.charge("topk", "g2", 2)
        assert b.spent == 5
        assert b.remaining == 5

    def test_default_count_is_one(self):
        b = SPBudget(10)
        b.charge("topk", "g1")
        assert b.spent == 1

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            SPBudget(-1)

    def test_zero_limit_allows_nothing(self):
        b = SPBudget(0)
        with pytest.raises(BudgetExceededError):
            b.charge("topk", "g1", 1)

    def test_nonpositive_count_rejected(self):
        b = SPBudget(10)
        with pytest.raises(ValueError):
            b.charge("topk", "g1", 0)


class TestEnforcement:
    def test_overdraft_raises(self):
        b = SPBudget(2)
        b.charge("topk", "g1", 2)
        with pytest.raises(BudgetExceededError, match="would spend 3"):
            b.charge("topk", "g2", 1)

    def test_failed_charge_not_recorded(self):
        b = SPBudget(2)
        b.charge("topk", "g1", 2)
        with pytest.raises(BudgetExceededError):
            b.charge("topk", "g2", 5)
        assert b.spent == 2
        assert len(b.ledger()) == 1

    def test_exact_spend_to_limit_allowed(self):
        b = SPBudget(4)
        b.charge("a", "g1", 4)
        assert b.remaining == 0

    def test_can_afford(self):
        b = SPBudget(3)
        assert b.can_afford(3)
        assert not b.can_afford(4)
        b.charge("x", "g1", 1)
        assert b.can_afford(2)
        assert not b.can_afford(3)


class TestUnlimited:
    def test_none_limit_never_raises(self):
        b = SPBudget(None)
        b.charge("topk", "g1", 10**9)
        assert b.spent == 10**9
        assert b.remaining > 10**17

    def test_unlimited_still_audits(self):
        b = SPBudget(None)
        b.charge("generation", "g1", 5)
        assert b.by_phase() == {"generation": 5}


class TestAudit:
    def test_by_phase(self):
        b = SPBudget(20)
        b.charge("generation", "g1", 4)
        b.charge("generation", "g2", 4)
        b.charge("topk", "g1", 6)
        assert b.by_phase() == {"generation": 8, "topk": 6}

    def test_by_snapshot(self):
        b = SPBudget(20)
        b.charge("generation", "g1", 4)
        b.charge("topk", "g1", 6)
        b.charge("topk", "g2", 6)
        assert b.by_snapshot() == {"g1": 10, "g2": 6}

    def test_ledger_order(self):
        b = SPBudget(10)
        b.charge("a", "g1", 1)
        b.charge("b", "g2", 2)
        ledger = b.ledger()
        assert [(r.phase, r.snapshot, r.count) for r in ledger] == [
            ("a", "g1", 1),
            ("b", "g2", 2),
        ]

    def test_ledger_totals_match_spent(self):
        b = SPBudget(100)
        for i in range(1, 6):
            b.charge(f"phase{i % 2}", "g1", i)
        assert sum(r.count for r in b.ledger()) == b.spent == 15


class TestSharedRecords:
    CHARGES = [
        ("generation", "g1", 3), ("topk", "g1", 1), ("topk", "g2", 1),
        ("topk", "g1", 1), ("generation", "g2", 2), ("topk", "g2", 1),
        ("topk", "g1", 2),
    ]

    def _budget(self):
        b = SPBudget(None)
        for phase, snapshot, count in self.CHARGES:
            b.charge(phase, snapshot, count)
        return b

    def test_ledger_equals_one_record_per_charge(self):
        ledger = self._budget().ledger()
        assert ledger == tuple(ChargeRecord(*c) for c in self.CHARGES)
        assert [(r.phase, r.snapshot, r.count) for r in ledger] == self.CHARGES

    def test_audits_keep_first_seen_order(self):
        b = self._budget()
        assert list(b.by_phase().items()) == [("generation", 5), ("topk", 6)]
        assert list(b.by_snapshot().items()) == [("g1", 7), ("g2", 4)]

    def test_equal_charges_share_one_record(self):
        ledger = self._budget().ledger()
        assert ledger[1] is ledger[3]
        assert ledger[2] is ledger[5]
        assert ledger[1] is not ledger[6]  # same phase and snapshot, count 2
        assert len({id(r) for r in ledger}) == len(set(self.CHARGES))

    def test_budgets_do_not_share_records(self):
        assert self._budget().ledger()[0] is not self._budget().ledger()[0]

    def test_record_cannot_be_mutated(self):
        record = self._budget().ledger()[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.count = 5
        assert record == ChargeRecord("topk", "g1", 1)
