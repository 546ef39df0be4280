"""Unit tests for repro.graph.graph.Graph."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph

from conftest import complete_graph, path_graph, star_graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_from_edge_tuples(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_weighted_tuples(self):
        g = Graph([(1, 2, 2.5)])
        assert g.weight(1, 2) == 2.5

    def test_mixed_tuples(self):
        g = Graph([(1, 2), (2, 3, 0.5)])
        assert g.weight(1, 2) == 1.0
        assert g.weight(2, 3) == 0.5

    def test_len_is_node_count(self):
        assert len(Graph([(1, 2), (3, 4)])) == 4


class TestMutation:
    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1
        assert g.degree("a") == 0

    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g

    def test_add_edge_is_undirected(self):
        g = Graph([(1, 2)])
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="self loop"):
            g.add_edge(3, 3)

    def test_nonpositive_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="positive"):
            g.add_edge(1, 2, 0.0)
        with pytest.raises(ValueError, match="positive"):
            g.add_edge(1, 2, -1.0)

    def test_readd_edge_updates_weight(self):
        g = Graph([(1, 2, 1.0)])
        g.add_edge(1, 2, 9.0)
        assert g.num_edges == 1
        assert g.weight(1, 2) == 9.0
        assert g.weight(2, 1) == 9.0

    def test_remove_edge(self):
        g = Graph([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 1
        assert 1 in g  # node stays

    def test_remove_missing_edge_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(KeyError):
            g.remove_edge(1, 3)

    def test_remove_node_removes_incident_edges(self):
        g = star_graph(4)
        g.remove_node(0)
        assert g.num_edges == 0
        assert g.num_nodes == 4

    def test_remove_missing_node_raises(self):
        with pytest.raises(KeyError):
            Graph().remove_node("ghost")

    def test_add_edges_from(self):
        g = Graph()
        g.add_edges_from([(1, 2), (2, 3, 4.0)])
        assert g.num_edges == 2
        assert g.weight(2, 3) == 4.0


class TestQueries:
    def test_edges_yields_each_once(self):
        g = complete_graph(5)
        edges = list(g.edges())
        assert len(edges) == 10
        canonical = {tuple(sorted(e)) for e in edges}
        assert len(canonical) == 10

    def test_weighted_edges(self):
        g = Graph([(1, 2, 3.0), (2, 3, 4.0)])
        weights = {tuple(sorted((u, v))): w for u, v, w in g.weighted_edges()}
        assert weights == {(1, 2): 3.0, (2, 3): 4.0}

    def test_neighbors(self, path5):
        assert sorted(path5.neighbors(1)) == [0, 2]
        assert sorted(path5.neighbors(0)) == [1]

    def test_neighbors_missing_raises(self, path5):
        with pytest.raises(KeyError):
            list(path5.neighbors(99))

    def test_degree(self, path5):
        assert path5.degree(0) == 1
        assert path5.degree(2) == 2

    def test_degree_of_absent_node_is_zero(self, path5):
        assert path5.degree(99) == 0

    def test_degrees_map(self, path5):
        degs = path5.degrees()
        assert degs == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}

    def test_max_degree(self):
        assert star_graph(7).max_degree() == 7
        assert Graph().max_degree() == 0

    def test_density_complete(self):
        assert complete_graph(6).density() == pytest.approx(1.0)

    def test_density_small_graphs(self):
        assert Graph().density() == 0.0
        g = Graph()
        g.add_node(1)
        assert g.density() == 0.0

    def test_density_path(self):
        # 4 nodes, 3 edges: 2*3 / (4*3) = 0.5
        assert path_graph(4).density() == pytest.approx(0.5)

    def test_is_weighted(self):
        assert not path_graph(3).is_weighted()
        assert Graph([(1, 2, 2.0)]).is_weighted()

    def test_iteration_order_is_insertion_order(self):
        g = Graph([(5, 3), (1, 5)])
        assert list(g.nodes()) == [5, 3, 1]

    def test_weight_missing_raises(self, path5):
        with pytest.raises(KeyError):
            path5.weight(0, 4)


class TestDerivation:
    def test_copy_is_independent(self, path5):
        g = path5.copy()
        g.add_edge(0, 4)
        assert not path5.has_edge(0, 4)
        assert g.has_edge(0, 4)

    def test_copy_preserves_weights(self):
        g = Graph([(1, 2, 5.0)])
        assert g.copy().weight(1, 2) == 5.0

    def test_equality(self):
        assert Graph([(1, 2)]) == Graph([(2, 1)])
        assert Graph([(1, 2)]) != Graph([(1, 2, 2.0)])
        assert Graph([(1, 2)]) != Graph([(1, 3)])

    def test_equality_with_non_graph(self):
        assert Graph() != "not a graph"

    def test_subgraph_induced(self, path5):
        sub = path5.subgraph([0, 1, 2, 4])
        assert sub.num_nodes == 4
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)
        assert sub.degree(4) == 0

    def test_subgraph_ignores_unknown_nodes(self, path5):
        sub = path5.subgraph([0, 1, 99])
        assert sub.num_nodes == 2

    def test_subgraph_preserves_weights(self):
        g = Graph([(1, 2, 7.0), (2, 3, 8.0)])
        sub = g.subgraph([1, 2])
        assert sub.weight(1, 2) == 7.0

    def test_hashable_node_types_mix(self):
        g = Graph([("a", 1), (1, (2, 3))])
        assert g.num_nodes == 3
        assert g.has_edge((2, 3), 1)


NODE = st.integers(min_value=0, max_value=6)
STEP = st.one_of(
    st.tuples(st.just("add"), NODE, NODE, st.sampled_from([1.0, 1, 0.5, 3.0])),
    st.tuples(st.just("reweight"), st.integers(min_value=0)),
    st.tuples(st.just("remove_edge"), st.integers(min_value=0)),
    st.tuples(st.just("remove_node"), NODE),
    st.tuples(st.just("copy")),
    st.tuples(st.just("subgraph"), st.frozensets(NODE)),
    st.tuples(st.just("pickle")),
)


class TestIsWeightedCache:
    """``is_weighted`` answers from a flag the mutators keep; it must
    always agree with a scan of the edges."""

    @staticmethod
    def _check(g):
        assert g.is_weighted() == any(
            w != 1.0 for _, _, w in g.weighted_edges()
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(STEP, max_size=40))
    def test_flag_matches_scan(self, steps):
        g = Graph()
        for step in steps:
            kind = step[0]
            edges = list(g.weighted_edges())
            if kind == "add" and step[1] != step[2]:
                g.add_edge(step[1], step[2], step[3])
            elif kind == "reweight" and edges:
                u, v, w = edges[step[1] % len(edges)]
                g.add_edge(u, v, 1.0)
                self._check(g)
                g.add_edge(u, v, w)
            elif kind == "remove_edge" and edges:
                u, v, _ = edges[step[1] % len(edges)]
                g.remove_edge(u, v)
            elif kind == "remove_node" and step[1] in g:
                g.remove_node(step[1])
            elif kind == "copy":
                g = g.copy()
            elif kind == "subgraph":
                g = g.subgraph(step[1])
            elif kind == "pickle":
                g = pickle.loads(pickle.dumps(g))
            self._check(g)
