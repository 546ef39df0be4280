"""Unit tests for the dispersion-based selectors (MaxMin / MaxAvg)."""

import numpy as np
import pytest

from repro.core.budget import BudgetExceededError, SPBudget
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.selection import get_selector
from repro.selection.dispersion import greedy_dispersion

from conftest import path_graph


def on(g):
    """The snapshot pair (g, g): dispersion only reads G_t1."""
    return SnapshotPair.from_graphs(g, g)


def run(name, g1, g2, m, seed=0):
    selector = get_selector(name)
    budget = SPBudget(2 * m)
    result = selector.select(g1, g2, m, budget, rng=np.random.default_rng(seed))
    return result, budget


class TestGreedyDispersion:
    def test_selects_requested_count(self, path5):
        budget = SPBudget(None)
        nodes, rows = greedy_dispersion(
            on(path5), 3, "min", budget, np.random.default_rng(0)
        )
        assert len(nodes) == 3
        assert len(set(nodes)) == 3

    def test_rows_returned_for_every_pick(self, path5):
        budget = SPBudget(None)
        pair = on(path5)
        nodes, rows = greedy_dispersion(
            pair, 3, "avg", budget, np.random.default_rng(0)
        )
        assert set(rows) == set(nodes)
        for u, row in rows.items():
            assert row[pair.index[u]] == 0

    def test_charges_one_sssp_per_pick(self, path5):
        budget = SPBudget(10)
        greedy_dispersion(on(path5), 4, "min", budget, np.random.default_rng(0))
        assert budget.spent == 4
        assert budget.by_snapshot() == {"g1": 4}

    def test_count_clamped_to_node_count(self, path5):
        budget = SPBudget(None)
        nodes, _ = greedy_dispersion(
            on(path5), 50, "min", budget, np.random.default_rng(0)
        )
        assert len(nodes) == 5

    def test_zero_count(self, path5):
        nodes, rows = greedy_dispersion(
            on(path5), 0, "min", SPBudget(None), np.random.default_rng(0)
        )
        assert nodes == [] and rows == {}

    def test_invalid_mode(self, path5):
        with pytest.raises(ValueError, match="mode"):
            greedy_dispersion(on(path5), 2, "median", SPBudget(None),
                              np.random.default_rng(0))

    def test_maxmin_second_pick_is_farthest(self):
        # On a long path, whatever the random start s, the second pick
        # must be the endpoint farthest from s.
        g = path_graph(9)
        for seed in range(5):
            nodes, _ = greedy_dispersion(
                on(g), 2, "min", SPBudget(None), np.random.default_rng(seed)
            )
            s, t = nodes
            assert abs(s - t) == max(s, 8 - s)

    def test_maxmin_spreads_over_components(self, two_components):
        nodes, _ = greedy_dispersion(
            on(two_components), 2, "min", SPBudget(None), np.random.default_rng(1)
        )
        comp = lambda u: 0 if u in (0, 1, 2) else 1
        assert comp(nodes[0]) != comp(nodes[1])

    def test_budget_enforced(self, path5):
        with pytest.raises(BudgetExceededError):
            greedy_dispersion(on(path5), 4, "min", SPBudget(2),
                              np.random.default_rng(0))


class TestDispersionSelectors:
    @pytest.mark.parametrize("name", ["MaxMin", "MaxAvg"])
    def test_budget_split_matches_table1(self, name, shortcut_pair):
        g1, g2 = shortcut_pair
        result, budget = run(name, g1, g2, 4)
        assert budget.spent == 4  # generation only; topk pays the rest
        assert budget.by_snapshot() == {"g1": 4}
        assert len(result.candidates) == 4
        assert set(result.d1_rows) == set(result.candidates)
        assert not result.d2_rows

    @pytest.mark.parametrize("name", ["MaxMin", "MaxAvg"])
    def test_candidates_distinct_and_in_g1(self, name, shortcut_pair):
        g1, g2 = shortcut_pair
        result, _ = run(name, g1, g2, 5)
        assert len(set(result.candidates)) == len(result.candidates)
        assert all(u in g1 for u in result.candidates)

    def test_maxavg_second_pick_is_farthest_from_first(self):
        # For a single selected node, avg distance = distance, so the
        # second pick must be at maximum distance from the first.
        g = Graph([(0, i) for i in range(1, 6)])
        g.add_edge(5, 6)
        g.add_edge(6, 7)
        from repro.graph.traversal import bfs_distances

        for seed in range(5):
            result, _ = run("MaxAvg", g, g, 2, seed=seed)
            first, second = result.candidates
            dist = bfs_distances(g, first)
            assert dist[second] == max(dist.values())

    def test_seeded_determinism(self, shortcut_pair):
        g1, g2 = shortcut_pair
        a, _ = run("MaxMin", g1, g2, 3, seed=9)
        b, _ = run("MaxMin", g1, g2, 3, seed=9)
        assert a.candidates == b.candidates
