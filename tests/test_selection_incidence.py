"""Unit tests for the Incidence family (budgeted and unbudgeted)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import SPBudget
from repro.core.pairs import converging_pairs_at_threshold
from repro.graph.graph import Graph
from repro.selection import get_selector
from repro.selection.incidence import (
    active_nodes,
    incident_betweenness_increase,
    new_edges,
    run_incidence_algorithm,
    run_selective_expansion,
)

from conftest import path_graph, random_snapshot_pair


@pytest.fixture
def chord_pair():
    g1 = path_graph(8)
    g2 = g1.copy()
    g2.add_edge(0, 7)
    g2.add_edge(3, 8)  # new node 8 attached to 3
    return g1, g2


class TestActiveNodes:
    def test_new_edges(self, chord_pair):
        g1, g2 = chord_pair
        assert set(new_edges(g1, g2)) == {(0, 7), (3, 8)}

    def test_active_nodes_restricted_to_v1(self, chord_pair):
        g1, g2 = chord_pair
        assert active_nodes(g1, g2) == {0, 7, 3}  # 8 is not in V_t1

    def test_no_new_edges(self, path5):
        assert active_nodes(path5, path5) == set()

    def test_identical_graph_no_new_edges(self, path5):
        assert new_edges(path5, path5) == []

    @settings(max_examples=100, deadline=None)
    @given(
        old=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                     max_size=30),
        new=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)),
                     max_size=20),
        isolated=st.lists(st.integers(0, 14), max_size=4),
    )
    def test_equals_endpoints_of_new_edges(self, old, new, isolated):
        # Ids 15-24 exist only at t2, so some new edges have one
        # endpoint (or both) outside V_t1.
        g1 = Graph([(u, v) for u, v in old if u != v])
        for u in isolated:
            g1.add_node(u)
        g2 = g1.copy()
        for u, v in new:
            if u != v:
                g2.add_edge(u, v)
        expected = {
            w for edge in new_edges(g1, g2) for w in edge if w in g1
        }
        assert active_nodes(g1, g2) == expected


class TestIncDeg:
    def test_candidates_are_active(self, chord_pair):
        g1, g2 = chord_pair
        selector = get_selector("IncDeg")
        result = selector.select(g1, g2, 3, SPBudget(6),
                                 rng=np.random.default_rng(0))
        assert set(result.candidates) <= {0, 7, 3}

    def test_ranked_by_degree_diff(self, chord_pair):
        g1, g2 = chord_pair
        selector = get_selector("IncDeg")
        result = selector.select(g1, g2, 3, SPBudget(6),
                                 rng=np.random.default_rng(0))
        diffs = [g2.degree(u) - g1.degree(u) for u in result.candidates]
        assert diffs == sorted(diffs, reverse=True)

    def test_no_generation_cost(self, chord_pair):
        budget = SPBudget(10)
        get_selector("IncDeg").select(*chord_pair, 3, budget)
        assert budget.spent == 0

    def test_fewer_active_than_m(self, chord_pair):
        result = get_selector("IncDeg").select(*chord_pair, 50, SPBudget(100))
        assert len(result.candidates) == 3


class TestIncBet:
    def test_scores_reflect_new_shortcut(self, chord_pair):
        g1, g2 = chord_pair
        scores = incident_betweenness_increase(g1, g2)
        # The chord endpoints gained a high-betweenness edge.
        assert scores[0] > scores[4]

    def test_exact_selector_runs(self, chord_pair):
        result = get_selector("IncBet").select(*chord_pair, 2, SPBudget(4))
        assert len(result.candidates) == 2
        assert set(result.candidates) <= {0, 7, 3}

    def test_sampled_selector_runs(self, chord_pair):
        selector = get_selector("IncBet", pivots=4)
        result = selector.select(*chord_pair, 2, SPBudget(4),
                                 rng=np.random.default_rng(0))
        assert len(result.candidates) == 2

    def test_invalid_pivots(self):
        with pytest.raises(ValueError):
            get_selector("IncBet", pivots=0)


class TestUnbudgetedIncidence:
    def test_full_coverage_from_active_set(self, chord_pair):
        g1, g2 = chord_pair
        truth = converging_pairs_at_threshold(g1, g2, 2)
        result = run_incidence_algorithm(g1, g2, k=len(truth))
        assert {p.pair for p in result.pairs} >= {
            p.pair for p in truth if p.u in result.active or p.v in result.active
        }
        # The chord pair must be found: 0 is active.
        assert (0, 7) in {p.pair for p in result.pairs}

    def test_sp_cost_is_two_per_active(self, chord_pair):
        g1, g2 = chord_pair
        result = run_incidence_algorithm(g1, g2, k=3)
        assert result.sp_computations == 2 * len(result.active)

    def test_active_fraction(self, chord_pair):
        g1, g2 = chord_pair
        result = run_incidence_algorithm(g1, g2, k=3)
        assert result.active_fraction(g1) == pytest.approx(3 / 8)

    def test_bad_k(self, chord_pair):
        with pytest.raises(ValueError):
            run_incidence_algorithm(*chord_pair, k=0)

    def test_matches_truth_on_random_instance(self):
        g1, g2 = random_snapshot_pair(num_nodes=30, num_edges=70, seed=71)
        truth = converging_pairs_at_threshold(g1, g2, 1)
        if not truth:
            pytest.skip("degenerate instance")
        result = run_incidence_algorithm(g1, g2, k=len(truth))
        # Every converging pair has at least one endpoint incident to a
        # new edge?  Not guaranteed in general — but found pairs must be
        # genuine and ranked.
        truth_set = {p.pair for p in truth}
        for p in result.pairs:
            if p.delta >= truth[0].delta:
                assert p.pair in truth_set


class TestSelectiveExpansion:
    def test_runs_and_improves_or_matches(self, chord_pair):
        g1, g2 = chord_pair
        base = run_incidence_algorithm(g1, g2, k=5)
        expanded = run_selective_expansion(
            g1, g2, k=5, expansion_per_round=2, max_rounds=3
        )
        assert expanded.rounds >= 1
        assert len(expanded.active) >= len(base.active)

    def test_bad_args(self, chord_pair):
        with pytest.raises(ValueError):
            run_selective_expansion(*chord_pair, k=0)
        with pytest.raises(ValueError):
            run_selective_expansion(*chord_pair, k=1, expansion_per_round=0)

    def test_terminates_when_no_new_pairs(self, path5):
        result = run_selective_expansion(path5, path5, k=3, max_rounds=10)
        assert result.rounds <= 2
        assert result.pairs == []


class TestIncDeg2:
    def test_candidates_are_active_ranked_by_t2_degree(self, chord_pair):
        g1, g2 = chord_pair
        selector = get_selector("IncDeg2")
        result = selector.select(g1, g2, 3, SPBudget(6),
                                 rng=np.random.default_rng(0))
        assert set(result.candidates) <= {0, 7, 3}
        degrees = [g2.degree(u) for u in result.candidates]
        assert degrees == sorted(degrees, reverse=True)

    def test_no_generation_cost(self, chord_pair):
        budget = SPBudget(10)
        get_selector("IncDeg2").select(*chord_pair, 3, budget)
        assert budget.spent == 0


class TestIncRecv:
    def test_scores_only_received_edges(self, chord_pair):
        g1, g2 = chord_pair
        selector = get_selector("IncRecv")
        result = selector.select(g1, g2, 3, SPBudget(6),
                                 rng=np.random.default_rng(0))
        assert set(result.candidates) <= {0, 7, 3}
        # The chord (0, 7) has far higher betweenness than the pendant
        # (3, 8), so the chord endpoints must rank above node 3.
        assert set(result.candidates[:2]) == {0, 7}

    def test_sampled_pivots(self, chord_pair):
        selector = get_selector("IncRecv", pivots=8)
        result = selector.select(*chord_pair, 2, SPBudget(4),
                                 rng=np.random.default_rng(0))
        assert len(result.candidates) == 2

    def test_invalid_pivots(self):
        with pytest.raises(ValueError):
            get_selector("IncRecv", pivots=0)

    def test_precomputed_edge_bc(self, chord_pair):
        g1, g2 = chord_pair
        from repro.graph.betweenness import edge_betweenness

        bc2 = edge_betweenness(g2, normalized=False)
        selector = get_selector("IncRecv", precomputed_edge_bc=bc2)
        result = selector.select(g1, g2, 3, SPBudget(6))
        assert set(result.candidates[:2]) == {0, 7}
