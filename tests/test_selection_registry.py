"""Unit tests for the selector registry and shared base utilities."""

import pytest

from repro.selection import SINGLE_FEATURE_SELECTORS, available_selectors, get_selector
from repro.selection.base import (
    CandidateSelector,
    SelectionResult,
    rank_take,
    register_selector,
)


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = set(available_selectors())
        expected = {
            "Degree", "DegDiff", "DegRel", "MaxMin", "MaxAvg", "SumDiff",
            "MaxDiff", "MMSD", "MMMD", "MASD", "MAMD", "IncDeg", "IncBet",
            "L-Classifier", "G-Classifier",
        }
        assert expected <= names

    def test_single_feature_list_is_registered_subset(self):
        names = set(available_selectors())
        assert set(SINGLE_FEATURE_SELECTORS) <= names

    def test_lookup_is_case_insensitive(self):
        assert type(get_selector("mmsd")) is type(get_selector("MMSD"))

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known selectors"):
            get_selector("NotAnAlgorithm")

    def test_each_lookup_returns_fresh_instance(self):
        assert get_selector("Degree") is not get_selector("Degree")

    def test_kwargs_forwarded(self):
        selector = get_selector("SumDiff", num_landmarks=7)
        assert selector.num_landmarks == 7

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_selector("Degree")
            class Clone(CandidateSelector):  # pragma: no cover
                def select(self, g1, g2, m, budget, rng=None, *, pair=None):
                    return SelectionResult(candidates=[])

    def test_selector_name_attribute(self):
        assert get_selector("MMSD").name == "MMSD"


class TestRankTake:
    def test_orders_by_score_desc(self):
        assert rank_take({1: 2.0, 2: 5.0, 3: 1.0}, 2) == [2, 1]

    def test_ties_broken_by_repr(self):
        assert rank_take({"b": 1.0, "a": 1.0}, 2) == ["a", "b"]

    def test_m_larger_than_population(self):
        assert rank_take({1: 1.0}, 10) == [1]

    def test_empty_scores(self):
        assert rank_take({}, 3) == []
