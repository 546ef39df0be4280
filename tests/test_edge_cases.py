"""Edge-case hardening: trivial, degenerate, and adversarial inputs.

Production users feed pipelines empty streams, single-edge graphs, and
already-converged snapshots; none of those should crash or mis-report.
"""

import pytest

from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.pairs import (
    converging_pairs_at_threshold,
    delta_histogram,
    top_k_converging_pairs,
)
from repro.graph.dynamic import TemporalGraph
from repro.graph.graph import Graph
from repro.selection import get_selector
from repro.selection.base import CandidateSelector, SelectionResult

from conftest import path_graph


class TestTrivialGraphs:
    def test_single_edge_pipeline(self):
        g1 = Graph([(0, 1)])
        g2 = g1.copy()
        result = find_top_k_converging_pairs(
            g1, g2, k=1, m=1, selector=get_selector("Degree")
        )
        assert result.pairs == []

    def test_two_node_stream(self):
        tg = TemporalGraph([(0, "a", "b")])
        g1, g2 = tg.snapshot_pair(1.0, 1.0)
        assert delta_histogram(g1, g2) == {0: 1}

    def test_identical_snapshots_no_pairs(self, path5):
        assert top_k_converging_pairs(path5, path5, k=10) == []
        result = find_top_k_converging_pairs(
            path5, path5, k=5, m=3, selector=get_selector("DegRel")
        )
        assert result.pairs == []

    def test_m_exceeding_node_count(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=3, m=50, selector=get_selector("Degree")
        )
        # All 6 nodes become candidates; budget covers them comfortably.
        assert len(result.candidates) == 6
        assert result.pairs[0].pair == (0, 5)

    def test_star_collapse(self):
        # Everything at distance 2 through the hub; adding rim edges
        # converges rim pairs by exactly 1.
        g1 = Graph([(0, i) for i in range(1, 6)])
        g2 = g1.copy()
        g2.add_edge(1, 2)
        pairs = converging_pairs_at_threshold(g1, g2, 1)
        assert {p.pair for p in pairs} == {(1, 2)}


class TestMisbehavedSelectors:
    class Duplicates(CandidateSelector):
        name = "Dup"

        def select(self, g1, g2, m, budget, rng=None, *, pair=None):
            first = next(iter(g1.nodes()))
            return SelectionResult(candidates=[first, first])

    class Foreign(CandidateSelector):
        name = "Foreign"

        def select(self, g1, g2, m, budget, rng=None, *, pair=None):
            return SelectionResult(candidates=["not-a-node"])

    def test_duplicate_candidates_rejected(self, shortcut_pair):
        with pytest.raises(ValueError, match="duplicate"):
            find_top_k_converging_pairs(
                *shortcut_pair, k=1, m=5, selector=self.Duplicates()
            )

    def test_foreign_candidates_rejected(self, shortcut_pair):
        with pytest.raises(ValueError, match="not a node"):
            find_top_k_converging_pairs(
                *shortcut_pair, k=1, m=5, selector=self.Foreign()
            )


class TestStringNodeIds:
    def test_full_pipeline_with_string_ids(self):
        tg = TemporalGraph(
            [(t, f"user{u}", f"user{v}") for t, (u, v) in enumerate(
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
            )]
        )
        g1, g2 = tg.snapshot_pair(5 / 6, 1.0)
        result = find_top_k_converging_pairs(
            g1, g2, k=2, m=3, selector=get_selector("DegDiff"), seed=0
        )
        assert result.pairs
        assert all(isinstance(p.u, str) for p in result.pairs)

    def test_mixed_id_types_do_not_crash_sorting(self):
        g1 = Graph([("a", 1), (1, 2), (2, "b")])
        g2 = g1.copy()
        g2.add_edge("a", "b")
        pairs = converging_pairs_at_threshold(g1, g2, 1)
        assert pairs  # ("a", "b") converged by 2
        assert pairs[0].delta == 2
