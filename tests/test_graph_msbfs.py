"""Bit-parallel multi-source BFS: byte-identity with the per-source engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_snapshot_pair,
    star_graph,
    to_networkx,
)
from repro.graph.csr import CSRGraph, UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.msbfs import (
    DEFAULT_BATCH,
    WORD_BITS,
    iter_msbfs_rows,
    msbfs_levels,
)
from repro.graph.traversal import bfs_distances, bfs_distances_many


def _reference(csr: CSRGraph, sources) -> np.ndarray:
    if not len(sources):
        return np.empty((0, csr.num_nodes), dtype=np.int32)
    return np.stack([bfs_levels(csr, int(s)) for s in sources])


def _fixture_graphs():
    yield path_graph(12)
    yield cycle_graph(9)
    yield star_graph(8)
    yield grid_graph(4, 5)
    disconnected = Graph()
    for i in range(10):
        disconnected.add_node(i)
    for a, b in ((0, 1), (1, 2), (4, 5), (7, 8)):
        disconnected.add_edge(a, b)
    yield disconnected
    g1, g2 = random_snapshot_pair(80, 200, seed=3)
    yield g1
    yield g2


class TestBitIdentity:
    @pytest.mark.parametrize("batch_size", [1, 3, WORD_BITS, 200])
    def test_matches_per_source_bfs_on_fixtures(self, batch_size):
        for g in _fixture_graphs():
            csr = CSRGraph.from_graph(g)
            sources = range(csr.num_nodes)
            got = msbfs_levels(csr, sources, batch_size=batch_size)
            ref = _reference(csr, list(sources))
            assert got.dtype == ref.dtype == np.int32
            assert got.tobytes() == ref.tobytes()

    def test_arbitrary_and_duplicate_source_orders(self):
        g1, _ = random_snapshot_pair(60, 150, seed=11)
        csr = CSRGraph.from_graph(g1)
        rng = np.random.default_rng(5)
        sources = rng.integers(0, csr.num_nodes, size=90)  # dups guaranteed
        got = msbfs_levels(csr, sources)
        assert got.tobytes() == _reference(csr, sources).tobytes()

    def test_matches_networkx_oracle(self):
        g1, _ = random_snapshot_pair(50, 120, seed=7)
        csr = CSRGraph.from_graph(g1)
        nxg = to_networkx(g1)
        import networkx as nx

        levels = msbfs_levels(csr, range(csr.num_nodes))
        for i, u in enumerate(csr.nodes):
            oracle = nx.single_source_shortest_path_length(nxg, u)
            row = {
                csr.nodes[j]: int(levels[i, j])
                for j in np.flatnonzero(levels[i] != UNREACHED)
            }
            assert row == dict(oracle)


class TestBatchWidthProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        num_nodes=st.integers(2, 40),
        num_edges=st.integers(1, 120),
    )
    def test_batch_width_never_changes_output_bytes(
        self, seed, num_nodes, num_edges
    ):
        g1, _ = random_snapshot_pair(num_nodes, num_edges, seed=seed)
        csr = CSRGraph.from_graph(g1)
        sources = range(csr.num_nodes)
        reference = msbfs_levels(csr, sources, batch_size=WORD_BITS)
        for batch_size in (1, 3, WORD_BITS):
            assert (
                msbfs_levels(csr, sources, batch_size=batch_size).tobytes()
                == reference.tobytes()
            )


class TestDeepLevels:
    """Closed forms on long graphs: levels past 512 fill bit planes 0–9."""

    @staticmethod
    def _sources(n: int, batch_size: int) -> np.ndarray:
        # One lane per sweep is slow on long graphs: sample the sources.
        return np.arange(n) if batch_size > 1 else np.arange(0, n, 50)

    @pytest.mark.parametrize("batch_size", [1, WORD_BITS, 200])
    def test_path_levels_are_index_gaps(self, batch_size):
        n = 701
        csr = CSRGraph.from_graph(path_graph(n))
        sources = self._sources(n, batch_size)
        got = msbfs_levels(csr, sources, batch_size=batch_size)
        gap = np.abs(sources[:, None] - np.arange(n)[None, :])
        assert got.dtype == np.int32
        assert int(got.max()) == n - 1
        assert np.array_equal(got, gap)

    @pytest.mark.parametrize("batch_size", [1, WORD_BITS, 200])
    def test_cycle_levels_are_the_shorter_arc(self, batch_size):
        n = 1030
        csr = CSRGraph.from_graph(cycle_graph(n))
        sources = self._sources(n, batch_size)
        got = msbfs_levels(csr, sources, batch_size=batch_size)
        gap = np.abs(sources[:, None] - np.arange(n)[None, :])
        assert got.dtype == np.int32
        assert int(got.max()) == n // 2 > 512
        assert np.array_equal(got, np.minimum(gap, n - gap))


class TestIsolatedNodes:
    def test_edgeless_graph(self):
        g = Graph()
        for i in range(5):
            g.add_node(i)
        csr = CSRGraph.from_graph(g)
        sources = [3, 0, 3]
        expect = np.full((3, 5), UNREACHED, dtype=np.int32)
        expect[np.arange(3), sources] = 0
        assert msbfs_levels(csr, sources).tobytes() == expect.tobytes()

    def test_sources_on_isolated_nodes(self):
        g = path_graph(6)
        g.add_node("a")
        g.add_node("b")
        csr = CSRGraph.from_graph(g)
        a, b = csr.index["a"], csr.index["b"]
        sources = [a, 2, b, a]
        got = msbfs_levels(csr, sources)
        assert got.tobytes() == _reference(csr, sources).tobytes()
        assert (got[0] == UNREACHED).sum() == csr.num_nodes - 1


@st.composite
def _graph_and_sources(draw):
    """Up to 150 nodes, many isolated, and sources with repeats."""
    n = draw(st.integers(1, 150))
    ends = st.integers(0, n - 1)
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for u, v in draw(st.lists(st.tuples(ends, ends), max_size=2 * n)):
        if u != v:
            g.add_edge(u, v)
    return g, draw(st.lists(ends, min_size=1, max_size=150))


class TestAgainstPerSourceBFS:
    @settings(max_examples=40, deadline=None)
    @given(
        case=_graph_and_sources(),
        batch_size=st.sampled_from([1, 2, 63, 64, 65, 130]),
    )
    def test_rows_match_bfs_levels(self, case, batch_size):
        g, sources = case
        csr = CSRGraph.from_graph(g)
        got = msbfs_levels(csr, sources, batch_size=batch_size)
        assert got.dtype == np.int32
        assert got.tobytes() == _reference(csr, sources).tobytes()


class TestSymmetricCSR:
    """Pulling frontier words equals pushing them only on a symmetric CSR."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        num_nodes=st.integers(2, 60),
        num_edges=st.integers(1, 150),
        keep=st.floats(0.1, 1.0),
    )
    def test_restricted_universe_keeps_both_directions(
        self, seed, num_nodes, num_edges, keep
    ):
        _, g2 = random_snapshot_pair(num_nodes, num_edges, seed=seed)
        rng = np.random.default_rng(seed)
        subset = [u for u in g2.nodes() if rng.random() < keep]
        csr = CSRGraph.from_graph(g2, nodes=subset)
        owners = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
        entries = set(zip(owners.tolist(), csr.indices.tolist()))
        assert entries == {(j, i) for i, j in entries}


class TestRowIterator:
    def test_rows_in_source_order(self):
        g1, _ = random_snapshot_pair(40, 100, seed=2)
        csr = CSRGraph.from_graph(g1)
        sources = [5, 0, 5, 17]
        rows = list(iter_msbfs_rows(csr, sources, batch_size=3))
        assert [s for s, _ in rows] == sources
        for s, row in rows:
            assert row.tobytes() == bfs_levels(csr, s).tobytes()

    def test_rows_are_independently_mutable(self):
        """The documented iter_msbfs_rows contract: consumers may mutate
        rows."""
        csr = CSRGraph.from_graph(path_graph(10))
        stream = iter_msbfs_rows(csr, range(10), batch_size=4)
        for s, row in stream:
            row[: s + 1] = UNREACHED  # mask the lower-index half in place
            # Mutation stays confined to this row: the next yielded row
            # still matches the per-source engine bit for bit.
            expect = bfs_levels(csr, s)
            expect[: s + 1] = UNREACHED
            assert row.tobytes() == expect.tobytes()


class TestValidation:
    def test_out_of_range_source_rejected(self):
        csr = CSRGraph.from_graph(path_graph(5))
        with pytest.raises(IndexError):
            msbfs_levels(csr, [0, 5])
        with pytest.raises(IndexError):
            msbfs_levels(csr, [-1])

    def test_bad_batch_size_rejected(self):
        csr = CSRGraph.from_graph(path_graph(5))
        with pytest.raises(ValueError):
            msbfs_levels(csr, [0], batch_size=0)
        with pytest.raises(ValueError):
            list(iter_msbfs_rows(csr, [0], batch_size=-1))

    def test_empty_sources(self):
        csr = CSRGraph.from_graph(path_graph(5))
        assert msbfs_levels(csr, []).shape == (0, 5)
        assert list(iter_msbfs_rows(csr, [])) == []


class TestDistancesMany:
    def test_matches_single_source_dicts(self):
        g1, _ = random_snapshot_pair(50, 120, seed=9)
        sources = list(g1.nodes())[::5]
        assert bfs_distances_many(g1, sources) == [
            bfs_distances(g1, s) for s in sources
        ]

    def test_missing_source_rejected(self):
        g = path_graph(4)
        with pytest.raises(KeyError):
            bfs_distances_many(g, ["nope"])

    def test_empty_sources(self):
        assert bfs_distances_many(path_graph(4), []) == []


def test_default_batch_is_one_word():
    assert DEFAULT_BATCH == WORD_BITS == 64
