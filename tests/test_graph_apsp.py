"""Unit tests for repro.graph.apsp."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.graph.apsp import (
    DistanceMatrix,
    all_pairs_distances,
    average_distance,
    diameter,
    eccentricities,
)
from repro.graph.graph import Graph

from conftest import cycle_graph, path_graph, random_snapshot_pair, to_networkx


class TestDistanceMatrix:
    def test_basic_lookup(self, path5):
        dm = all_pairs_distances(path5)
        assert dm.distance(0, 4) == 4
        assert dm.distance(4, 0) == 4
        assert dm.distance(2, 2) == 0

    def test_contains_and_len(self, path5):
        dm = all_pairs_distances(path5)
        assert len(dm) == 5
        assert 3 in dm
        assert 99 not in dm

    def test_row_alignment(self, path5):
        dm = all_pairs_distances(path5)
        row = dm.row(0)
        assert [row[dm.index[i]] for i in range(5)] == [0, 1, 2, 3, 4]

    def test_unreachable_is_inf(self, two_components):
        dm = all_pairs_distances(two_components)
        assert math.isinf(dm.distance(0, 10))

    def test_finite_pairs(self, two_components):
        dm = all_pairs_distances(two_components)
        # Within components: C(3,2) + C(2,2) = 3 + 1 = 4.
        assert dm.finite_pairs() == 4

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            DistanceMatrix([1, 2], np.zeros((3, 3), dtype=np.float32))

    def test_duplicate_nodes_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            DistanceMatrix([1, 1], np.zeros((2, 2), dtype=np.float32))

    def test_restricted_universe(self, shortcut_pair):
        g1, g2 = shortcut_pair
        dm2 = all_pairs_distances(g2, nodes=list(g1.nodes()))
        assert dm2.distance(0, 5) == 1

    def test_universe_node_missing_from_graph(self):
        g = Graph([(0, 1)])
        dm = all_pairs_distances(g, nodes=[0, 1, 7])
        assert dm.distance(7, 7) == 0
        assert math.isinf(dm.distance(0, 7))

    @pytest.mark.parametrize(
        "seed, num_nodes, num_edges, weighted",
        [
            (21, 30, 60, False), (22, 30, 60, False),
            (0, 40, 90, False), (1, 40, 90, False), (2, 40, 90, False),
            (3, 25, 60, True),
        ],
        ids=["21", "22", "0", "1", "2", "weighted"],
    )
    def test_matches_networkx(self, seed, num_nodes, num_edges, weighted):
        g, _ = random_snapshot_pair(
            num_nodes=num_nodes, num_edges=num_edges, seed=seed
        )
        if weighted:
            # Integer weights keep Dijkstra's float32 sums exact.
            rng = np.random.default_rng(seed)
            unit, g = g, Graph()
            for u, v in unit.edges():
                g.add_edge(u, v, float(rng.integers(1, 5)))
            expected = dict(nx.all_pairs_dijkstra_path_length(to_networkx(g)))
        else:
            expected = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        dm = all_pairs_distances(g)
        for u in g.nodes():
            for v in g.nodes():
                exp = expected[u].get(v, math.inf)
                assert dm.distance(u, v) == exp


class TestEccentricityDiameter:
    def test_path_diameter(self):
        assert diameter(path_graph(7)) == 6

    def test_cycle_diameter(self):
        assert diameter(cycle_graph(8)) == 4

    def test_eccentricities_path(self):
        ecc = eccentricities(path_graph(5))
        assert ecc[0] == 4
        assert ecc[2] == 2

    def test_disconnected_diameter_is_max_over_components(self, two_components):
        assert diameter(two_components) == 2

    def test_empty_graph(self):
        assert diameter(Graph()) == 0.0

    def test_isolated_node_eccentricity(self):
        g = Graph([(0, 1)])
        g.add_node(9)
        assert eccentricities(g)[9] == 0.0

    def test_weighted_diameter(self):
        g = Graph([(0, 1, 2.0), (1, 2, 3.0)])
        assert diameter(g) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", [23])
    def test_diameter_matches_networkx(self, seed):
        g, _ = random_snapshot_pair(num_nodes=30, num_edges=70, seed=seed)
        nxg = to_networkx(g)
        expected = max(
            nx.diameter(nxg.subgraph(c)) for c in nx.connected_components(nxg)
        )
        assert diameter(g) == expected


class TestAverageDistance:
    def test_path(self):
        # Path 0-1-2: distances 1,1,2 -> mean 4/3.
        assert average_distance(path_graph(3)) == pytest.approx(4 / 3)

    def test_no_pairs(self):
        g = Graph()
        g.add_node(1)
        assert average_distance(g) == 0.0

    def test_ignores_disconnected_pairs(self, two_components):
        # Component distances: (0-1)=1,(1-2)=1,(0-2)=2,(10-11)=1 -> 5/4.
        assert average_distance(two_components) == pytest.approx(5 / 4)
