"""Differential tests for the incremental delta-BFS engine.

The contract under test (docs/perf.md): repairing a t1 level array
through :class:`SnapshotDelta` yields levels **bit-identical** to an
independent full BFS on ``G_t2`` — for every ``G_t1`` source, at every
node, including nodes that only exist in ``G_t2``.
"""

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.incremental import SnapshotDelta, repair_levels

from conftest import random_snapshot_pair, to_networkx


def full_levels(delta: SnapshotDelta, source) -> np.ndarray:
    """The independent full-BFS t2 reference row for ``source``."""
    return bfs_levels(delta.csr2, delta.csr2.index[source])


def repaired_pair(delta: SnapshotDelta, source_idx1: int):
    """A t1 source's t1 levels (full BFS) and its repaired t2 levels."""
    levels1 = bfs_levels(delta.csr1, source_idx1)
    return levels1, repair_levels(delta, levels1)


class TestSnapshotDelta:
    def test_counts_inserted_edges_and_nodes(self, shortcut_pair):
        g1, g2 = shortcut_pair
        delta = SnapshotDelta.from_graphs(g1, g2)
        assert delta.num_new_edges == 1
        assert delta.num_new_nodes == 0

    def test_counts_new_nodes(self, shortcut_pair):
        g1, g2 = shortcut_pair
        g2 = g2.copy()
        g2.add_edge(5, "fresh")
        g2.add_node("isolated")
        delta = SnapshotDelta.from_graphs(g1, g2)
        assert delta.num_new_nodes == 2
        assert delta.num_new_edges == 2

    def test_source_index_is_t1_index(self, shortcut_pair):
        delta = SnapshotDelta.from_graphs(*shortcut_pair)
        assert delta.source_index(0) == delta.csr1.index[0]
        assert delta.source_index("nowhere") is None

    def test_rejects_deleted_node(self):
        g1 = Graph([(0, 1), (1, 2)])
        g2 = Graph([(0, 1)])
        with pytest.raises(ValueError, match="subgraph"):
            SnapshotDelta.from_graphs(g1, g2)

    def test_rejects_deleted_edge(self):
        g1 = Graph([(0, 1), (1, 2)])
        g2 = Graph([(0, 1), (0, 2)])
        g2.add_node(1)
        with pytest.raises(ValueError, match="subgraph"):
            SnapshotDelta.from_graphs(g1, g2)


class TestRepairExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_full_bfs_for_every_source(self, seed):
        g1, g2 = random_snapshot_pair(num_nodes=35, num_edges=90, seed=seed)
        delta = SnapshotDelta.from_graphs(g1, g2)
        for i, source in enumerate(delta.csr1.nodes):
            lv1, lv2 = repaired_pair(delta, i)
            want = full_levels(delta, source)
            assert lv2.dtype == want.dtype
            assert np.array_equal(lv2, want)
            assert np.array_equal(lv1, bfs_levels(delta.csr1, i))

    def test_shortcut_pair_repair(self, shortcut_pair):
        delta = SnapshotDelta.from_graphs(*shortcut_pair)
        lv1, lv2 = repaired_pair(delta, delta.csr1.index[0])
        assert lv1[delta.csr1.index[5]] == 5
        assert lv2[delta.csr2.index[5]] == 1

    def test_identical_snapshots_are_a_no_op(self, shortcut_pair):
        g1, _ = shortcut_pair
        delta = SnapshotDelta.from_graphs(g1, g1)
        assert delta.num_new_edges == 0
        lv1 = bfs_levels(delta.csr1, 0)
        lv2 = repair_levels(delta, lv1)
        assert np.array_equal(lv2[delta.mapping], lv1)

    def test_disconnected_region_stays_unreached(self):
        g1 = Graph([(0, 1)])
        g1.add_node(9)
        g2 = g1.copy()
        g2.add_edge(1, 2)
        delta = SnapshotDelta.from_graphs(g1, g2)
        _, lv2 = repaired_pair(delta, delta.csr1.index[0])
        assert lv2[delta.csr2.index[9]] == UNREACHED
        assert lv2[delta.csr2.index[2]] == 2

    def test_rejects_wrong_shape(self, shortcut_pair):
        delta = SnapshotDelta.from_graphs(*shortcut_pair)
        with pytest.raises(ValueError, match="shape"):
            repair_levels(delta, np.zeros(99, dtype=np.int32))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_networkx_oracle(self, seed):
        g1, g2 = random_snapshot_pair(num_nodes=25, num_edges=60, seed=seed)
        delta = SnapshotDelta.from_graphs(g1, g2)
        nxg2 = to_networkx(g2)
        for i, source in enumerate(delta.csr1.nodes):
            _, lv2 = repaired_pair(delta, i)
            oracle = nx.single_source_shortest_path_length(nxg2, source)
            for j, v in enumerate(delta.csr2.nodes):
                assert lv2[j] == oracle.get(v, UNREACHED)


class TestLevelsPair:
    def test_one_off_builds_its_own_delta(self, shortcut_pair):
        g1, g2 = shortcut_pair
        shared = SnapshotDelta.from_graphs(g1, g2)
        repaired_pair(shared, shared.csr1.index[3])  # serves another source first
        own = SnapshotDelta.from_graphs(g1, g2)
        lv1, lv2 = repaired_pair(own, own.csr1.index[0])
        ref1, ref2 = repaired_pair(shared, shared.csr1.index[0])
        assert np.array_equal(lv1, ref1)
        assert np.array_equal(lv2, ref2)

    def test_precomputed_delta_is_reused(self, shortcut_pair):
        g1, g2 = shortcut_pair
        delta = SnapshotDelta.from_graphs(g1, g2)
        for source in (3, 0):
            lv1, lv2 = repaired_pair(delta, delta.csr1.index[source])
            assert np.array_equal(lv2, full_levels(delta, source))
            assert np.array_equal(
                lv1, bfs_levels(delta.csr1, delta.csr1.index[source])
            )


NODE = st.integers(min_value=0, max_value=12)


@st.composite
def growing_pair_strategy(draw):
    """A random insertion-only pair where G_t2 may add nodes and edges."""
    raw = draw(st.lists(st.tuples(NODE, NODE), min_size=1, max_size=30))
    edges = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    if not edges:
        edges = [(0, 1)]
    cut = draw(st.integers(min_value=1, max_value=len(edges)))
    g1, g2 = Graph(edges[:cut]), Graph(edges)
    for extra in draw(st.lists(st.integers(13, 16), max_size=3)):
        g2.add_node(extra)  # isolated t2-only nodes
    return g1, g2


class TestEquivalenceProperty:
    @settings(max_examples=40, deadline=None)
    @given(growing_pair_strategy())
    def test_levels_pair_equals_independent_bfs_everywhere(self, pair):
        """The satellite property: exact for every t1 source at every
        node — including nodes only reachable in G_t2."""
        g1, g2 = pair
        delta = SnapshotDelta.from_graphs(g1, g2)
        for source in delta.csr1.nodes:
            idx1 = delta.source_index(source)
            lv1, lv2 = repaired_pair(delta, idx1)
            assert np.array_equal(lv2, full_levels(delta, source))
            assert np.array_equal(lv1, bfs_levels(delta.csr1, idx1))
