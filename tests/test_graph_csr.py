"""Unit tests for the CSR graph view and vectorised BFS."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import (
    CSRGraph,
    UNREACHED,
    all_sources_levels,
    bfs_distances_fast,
    bfs_levels,
    _multi_arange,
)
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances

from conftest import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_snapshot_pair,
    star_graph,
)


class TestMultiArange:
    def test_basic(self):
        out = _multi_arange(np.array([0, 5]), np.array([3, 2]))
        assert list(out) == [0, 1, 2, 5, 6]

    def test_single_range(self):
        assert list(_multi_arange(np.array([4]), np.array([3]))) == [4, 5, 6]

    def test_empty(self):
        assert _multi_arange(np.empty(0, int), np.empty(0, int)).size == 0

    def test_adjacent_ranges(self):
        out = _multi_arange(np.array([0, 3, 3]), np.array([3, 1, 2]))
        assert list(out) == [0, 1, 2, 3, 3, 4]


class TestCSRGraph:
    def test_from_graph_structure(self, path5):
        csr = CSRGraph.from_graph(path5)
        assert csr.num_nodes == 5
        assert csr.num_edges == 4
        assert list(csr.neighbors_of(csr.index[2])) == sorted(
            csr.index[v] for v in path5.neighbors(2)
        )

    def test_restricted_universe_drops_outside_neighbors(self):
        g = star_graph(4)
        csr = CSRGraph.from_graph(g, nodes=[0, 1, 2])
        assert csr.num_nodes == 3
        assert csr.num_edges == 2  # edges to 3 and 4 dropped

    def test_duplicate_universe_rejected(self, path5):
        with pytest.raises(ValueError, match="duplicate"):
            CSRGraph.from_graph(path5, nodes=[0, 0, 1])

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0


def reference_from_graph(graph, nodes=None):
    """The straightforward per-node CSR build: one sorted list per row."""
    node_list = list(nodes) if nodes is not None else list(graph.nodes())
    index = {u: i for i, u in enumerate(node_list)}
    counts = np.zeros(len(node_list) + 1, dtype=np.int64)
    rows = []
    for i, u in enumerate(node_list):
        nbrs = sorted(index[v] for v in graph.neighbors(u) if v in index)
        counts[i + 1] = len(nbrs)
        rows.append(np.array(nbrs, dtype=np.int32))
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)
    return node_list, np.cumsum(counts), indices.astype(np.int32)


@st.composite
def mixed_id_graph_and_universe(draw):
    """A graph over mixed int/str ids with isolated nodes (possibly
    empty), and either no universe or a shuffled subset of its nodes."""
    ids = st.one_of(st.integers(0, 30), st.text("abc", min_size=1, max_size=2))
    g = Graph()
    for u in draw(st.lists(ids, max_size=6)):
        g.add_node(u)
    for u, v in draw(st.lists(st.tuples(ids, ids), max_size=40)):
        if u != v:
            g.add_edge(u, v)
    nodes = list(g.nodes())
    if not draw(st.booleans()):
        return g, None
    order = draw(st.permutations(nodes))
    return g, order[: draw(st.integers(0, len(nodes)))]


class TestFromGraphMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=mixed_id_graph_and_universe())
    def test_byte_identical_to_per_node_build(self, case):
        g, universe = case
        csr = CSRGraph.from_graph(g, nodes=universe)
        nodes, indptr, indices = reference_from_graph(g, universe)
        assert csr.nodes == nodes
        assert csr.indptr.dtype == indptr.dtype == np.int64
        assert csr.indices.dtype == indices.dtype == np.int32
        assert csr.indptr.tobytes() == indptr.tobytes()
        assert csr.indices.tobytes() == indices.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_byte_identical_on_universes_that_drop_neighbours(self, data):
        g, _ = data.draw(mixed_id_graph_and_universe())
        edges = list(g.edges())
        if not edges:
            g.add_edge(0, "a")
            edges = list(g.edges())
        # Leave out one endpoint of a drawn edge, so the other endpoint's
        # row loses at least that neighbour.
        u, v = data.draw(st.sampled_from(edges))
        rest = [w for w in g.nodes() if w != v]
        universe = data.draw(st.permutations(rest))
        universe = [u] + [w for w in universe if w != u][
            : data.draw(st.integers(0, len(rest) - 1))
        ]
        csr = CSRGraph.from_graph(g, nodes=universe)
        nodes, indptr, indices = reference_from_graph(g, universe)
        assert indices.size < sum(g.degree(w) for w in universe)
        assert csr.nodes == nodes
        assert csr.index == {w: i for i, w in enumerate(nodes)}
        assert csr.indptr.tobytes() == indptr.tobytes()
        assert csr.indices.tobytes() == indices.tobytes()

    def test_unknown_universe_node_rejected(self, path5):
        with pytest.raises(KeyError):
            CSRGraph.from_graph(path5, nodes=[0, 1, 99])

    def test_unknown_universe_node_rejected_after_a_removal(self, path5):
        path5.remove_node(4)
        with pytest.raises(KeyError):
            CSRGraph.from_graph(path5, nodes=[0, 1, 4])

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        _, indptr, indices = reference_from_graph(Graph())
        assert csr.indptr.tobytes() == indptr.tobytes()
        assert csr.indices.dtype == np.int32 and csr.indices.size == 0


def assert_matches_reference(g, universe=None):
    """``from_graph`` equals the per-node build: node order, arrays,
    dtypes and index."""
    csr = CSRGraph.from_graph(g, nodes=universe)
    nodes, indptr, indices = reference_from_graph(g, universe)
    assert csr.nodes == nodes
    assert csr.index == {u: i for i, u in enumerate(nodes)}
    assert list(csr.index) == nodes
    assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int32
    assert csr.indptr.tobytes() == indptr.tobytes()
    assert csr.indices.tobytes() == indices.tobytes()


#: Mixed int/str node ids over a small range, so edges repeat.
log_ids = st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", "10"]))

#: One mutation of the graph under test; ``freeze`` checks it in place.
log_ops = st.one_of(
    st.tuples(st.just("add_edge"), log_ids, log_ids,
              st.sampled_from([1.0, 1.0, 2.0, 0.5])),
    st.tuples(st.just("add_node"), log_ids),
    st.tuples(st.sampled_from(
        ["remove_edge", "remove_node", "subgraph", "copy", "pickle",
         "deepcopy", "freeze"]
    )),
)


class TestEdgeLog:
    """``from_graph`` reads the graph's edge log; every mutation route
    must leave a log that builds the per-node CSR."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutation_sequences_build_the_reference_csr(self, data):
        g = Graph()
        for op in data.draw(st.lists(log_ops, max_size=40)):
            name = op[0]
            if name == "add_edge" and op[1] != op[2]:
                g.add_edge(op[1], op[2], op[3])
            elif name == "add_node":
                g.add_node(op[1])
            elif name == "remove_edge" and g.num_edges:
                g.remove_edge(*data.draw(st.sampled_from(list(g.edges()))))
            elif name == "remove_node" and g.num_nodes:
                g.remove_node(data.draw(st.sampled_from(list(g.nodes()))))
            elif name == "subgraph":
                g = g.subgraph(data.draw(st.lists(log_ids, max_size=8)))
            elif name == "copy":
                g = g.copy()
            elif name == "pickle":
                g = pickle.loads(pickle.dumps(g))
            elif name == "deepcopy":
                g = copy.deepcopy(g)
            elif name == "freeze":
                assert_matches_reference(g)
        assert_matches_reference(g)
        nodes = list(g.nodes())
        order = data.draw(st.permutations(nodes))
        universe = order[: data.draw(st.integers(0, len(nodes)))]
        assert_matches_reference(g, universe)

    def test_a_frozen_graph_grows_and_freezes_again(self):
        """No build keeps a buffer view of the log: an ``array`` that
        has one refuses to grow (``BufferError``)."""
        g = path_graph(4)
        first = CSRGraph.from_graph(g)
        CSRGraph.from_graph(g, nodes=[2, 0])
        g.add_edge(3, "x")
        g.add_edge(0, 2)
        assert_matches_reference(g)
        assert first.num_edges == 3 and first.nodes == [0, 1, 2, 3]

    def test_a_removal_drops_the_log_and_the_next_read_rebuilds_it(self):
        g = cycle_graph(5)
        g.remove_edge(0, 1)
        g.add_edge(0, 1)  # now last among 0's and 1's neighbours
        g.add_edge(1, 3)
        g.remove_node(4)
        ids, log = g.edge_log()
        assert list(ids.items()) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        pairs = np.frombuffer(log, dtype=np.int32).reshape(-1, 2).tolist()
        assert sorted(pairs) == [[0, 1], [1, 2], [1, 3], [2, 3]]
        del pairs
        g.add_edge(3, 0)  # the rebuilt log grows again
        assert g.edge_log()[1][-2:].tolist() == [3, 0]
        assert_matches_reference(g)

    @pytest.mark.parametrize("clone", [
        lambda g: g.copy(),
        lambda g: pickle.loads(pickle.dumps(g)),
        copy.deepcopy,
    ], ids=["copy", "pickle", "deepcopy"])
    def test_a_clone_has_its_own_log(self, clone):
        g = path_graph(3)
        twin = clone(g)
        twin.add_edge(2, 3)
        g.add_edge(0, 9)
        assert g.edge_log()[1].tolist() == [0, 1, 1, 2, 0, 3]
        assert twin.edge_log()[1].tolist() == [0, 1, 1, 2, 2, 3]
        assert_matches_reference(g)
        assert_matches_reference(twin)

    def test_reweighting_keeps_one_entry_per_edge(self):
        g = Graph([(0, 1, 2.0)])
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 3.0)
        assert g.edge_log()[1].tolist() == [0, 1]
        assert g.is_weighted()
        assert_matches_reference(g)


class TestBFSLevels:
    def test_path(self):
        g = path_graph(6)
        csr = CSRGraph.from_graph(g)
        levels = bfs_levels(csr, csr.index[0])
        assert [levels[csr.index[i]] for i in range(6)] == [0, 1, 2, 3, 4, 5]

    def test_unreached_marker(self, two_components):
        csr = CSRGraph.from_graph(two_components)
        levels = bfs_levels(csr, csr.index[0])
        assert levels[csr.index[10]] == UNREACHED

    def test_out_of_range_source(self, path5):
        csr = CSRGraph.from_graph(path5)
        with pytest.raises(IndexError):
            bfs_levels(csr, 99)

    def test_isolated_source(self):
        g = Graph([(0, 1)])
        g.add_node(7)
        csr = CSRGraph.from_graph(g)
        levels = bfs_levels(csr, csr.index[7])
        assert levels[csr.index[7]] == 0
        assert levels[csr.index[0]] == UNREACHED

    @pytest.mark.parametrize("seed", [111, 112, 113])
    def test_matches_dict_bfs(self, seed):
        g, _ = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        csr = CSRGraph.from_graph(g)
        for u in list(g.nodes())[:10]:
            ref = bfs_distances(g, u)
            levels = bfs_levels(csr, csr.index[u])
            got = {
                csr.nodes[i]: int(levels[i])
                for i in np.flatnonzero(levels != UNREACHED)
            }
            assert got == dict(ref)

    def test_long_path_closed_form(self):
        # 701 nodes: the levels reach 700 from an end, 350 from the middle.
        n = 701
        csr = CSRGraph.from_graph(path_graph(n))
        for s in (0, n // 2, n - 1):
            levels = bfs_levels(csr, csr.index[s])
            expected = [abs(i - s) for i in range(n)]
            assert [int(levels[csr.index[i]]) for i in range(n)] == expected

    def test_long_cycle_closed_form(self):
        n = 1031
        csr = CSRGraph.from_graph(cycle_graph(n))
        for s in (0, 515, n - 1):
            levels = bfs_levels(csr, csr.index[s])
            expected = [min(abs(i - s), n - abs(i - s)) for i in range(n)]
            assert [int(levels[csr.index[i]]) for i in range(n)] == expected

    def test_edgeless_graph(self):
        g = Graph()
        for u in range(5):
            g.add_node(u)
        csr = CSRGraph.from_graph(g)
        levels = bfs_levels(csr, 3)
        assert levels.dtype == np.int32
        assert levels.tolist() == [UNREACHED] * 3 + [0, UNREACHED]

    def test_grid(self):
        g = grid_graph(5, 7)
        csr = CSRGraph.from_graph(g)
        levels = bfs_levels(csr, csr.index[0])
        # Manhattan distance on a grid.
        assert levels[csr.index[4 * 7 + 6]] == 4 + 6


class TestFastWrappers:
    def test_bfs_distances_fast(self, path5):
        assert bfs_distances_fast(path5, 0) == dict(bfs_distances(path5, 0))

    def test_all_sources_levels_shape_and_symmetry(self):
        g = grid_graph(3, 3)
        csr = CSRGraph.from_graph(g)
        matrix = all_sources_levels(csr)
        assert matrix.shape == (9, 9)
        assert (matrix == matrix.T).all()
        assert (np.diag(matrix) == 0).all()


NODE = st.integers(min_value=0, max_value=12)


@st.composite
def small_edges(draw):
    raw = draw(st.lists(st.tuples(NODE, NODE), min_size=1, max_size=30))
    edges = {(min(u, v), max(u, v)) for u, v in raw if u != v}
    return sorted(edges) or [(0, 1)]


class TestEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(small_edges())
    def test_csr_bfs_equals_dict_bfs(self, edges):
        g = Graph(edges)
        csr = CSRGraph.from_graph(g)
        source = next(iter(g.nodes()))
        ref = dict(bfs_distances(g, source))
        levels = bfs_levels(csr, csr.index[source])
        got = {
            csr.nodes[i]: int(levels[i])
            for i in np.flatnonzero(levels != UNREACHED)
        }
        assert got == ref


@st.composite
def graph_and_source(draw):
    """A small graph with isolated nodes and several components, and
    any of its nodes as the source."""
    g = Graph()
    for u in draw(st.lists(NODE, max_size=5)):
        g.add_node(u)
    for u, v in draw(st.lists(st.tuples(NODE, NODE), max_size=30)):
        if u != v:
            g.add_edge(u, v)
    if not g.num_nodes:
        g.add_node(0)
    return g, draw(st.sampled_from(list(g.nodes())))


class TestBFSLevelsProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=graph_and_source())
    def test_equals_bfs_distances_from_any_source(self, case):
        g, source = case
        csr = CSRGraph.from_graph(g)
        levels = bfs_levels(csr, csr.index[source])
        ref = dict(bfs_distances(g, source))
        assert levels.dtype == np.int32
        assert {
            csr.nodes[i]: int(levels[i])
            for i in np.flatnonzero(levels != UNREACHED)
        } == ref
        assert int((levels == UNREACHED).sum()) == g.num_nodes - len(ref)
