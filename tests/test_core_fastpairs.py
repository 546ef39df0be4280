"""Equivalence tests: the CSR ground-truth engine vs the dict engine."""

import contextlib
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpairs
from repro.core.fastpairs import csr_delta_histogram, csr_pairs_at_threshold
from repro.core.pairs import (
    converging_pairs_at_threshold,
    delta_histogram,
    max_delta,
    top_k_converging_pairs,
)
from repro.graph.graph import Graph
from repro.graph.traversal import single_source_distances

from conftest import random_snapshot_pair


class TestEngineDispatch:
    def test_auto_picks_csr_for_unweighted(self, shortcut_pair):
        g1, g2 = shortcut_pair
        from repro.core.pairs import _resolve_engine

        assert _resolve_engine(g1, g2, "auto") == "csr"
        # Same result every way; smoke the dispatch paths explicitly.
        auto = delta_histogram(g1, g2, engine="auto")
        csr = delta_histogram(g1, g2, engine="csr")
        dict_ = delta_histogram(g1, g2, engine="dict")
        assert auto == csr == dict_

    def test_auto_falls_back_for_weighted(self):
        g1 = Graph([(0, 1, 2.0), (1, 2, 2.0)])
        g2 = g1.copy()
        g2.add_edge(0, 2, 0.5)
        hist = delta_histogram(g1, g2, engine="auto")
        assert any(d == pytest.approx(3.5) for d in hist)

    def test_hop_engines_reject_weighted(self):
        # Weighted only at t2: hop counts would still misreport d_t2.
        g1 = Graph([(0, 1), (1, 2)])
        g2 = g1.copy()
        g2.add_edge(0, 2, 0.5)
        with pytest.raises(ValueError, match="weight"):
            delta_histogram(g1, g2, engine="csr")
        with pytest.raises(ValueError, match="weight"):
            converging_pairs_at_threshold(g1, g2, 1, engine="csr")
        with pytest.raises(ValueError, match="weight"):
            top_k_converging_pairs(g1, g2, 1, engine="csr")

    def test_unknown_engine_rejected(self, shortcut_pair):
        # `incremental` is no longer an engine name.
        for engine in ("gpu", "incremental"):
            with pytest.raises(ValueError, match="one of auto/csr/dict"):
                delta_histogram(*shortcut_pair, engine=engine)

    def test_csr_engine_detects_invalid_pairs(self):
        g1 = Graph([(0, 1), (1, 2)])
        g2 = Graph([(0, 1), (0, 2)])
        g2.add_node(2)
        # Not a subgraph pair: edge (1,2) missing at t2 makes Δ negative.
        g2.add_edge(1, 3)
        g2.add_edge(3, 4)
        g2.add_edge(4, 2)
        with pytest.raises(ValueError, match="subgraph"):
            csr_delta_histogram(g1, g2)


class TestExampleEquivalence:
    @pytest.mark.parametrize("seed", [121, 122, 123, 124])
    def test_histograms_identical(self, seed):
        g1, g2 = random_snapshot_pair(num_nodes=40, num_edges=110, seed=seed)
        reference = delta_histogram(g1, g2, engine="dict")
        assert reference == csr_delta_histogram(g1, g2)

    @pytest.mark.parametrize("seed", [125, 126])
    @pytest.mark.parametrize("delta_min", [1, 2])
    @pytest.mark.parametrize("fast_engine", ["csr"])
    def test_threshold_pairs_identical(self, seed, delta_min, fast_engine):
        g1, g2 = random_snapshot_pair(num_nodes=40, num_edges=110, seed=seed)
        slow = converging_pairs_at_threshold(
            g1, g2, delta_min, engine="dict"
        )
        fast = converging_pairs_at_threshold(
            g1, g2, delta_min, engine=fast_engine
        )
        assert [(p.u, p.v, p.d1, p.d2) for p in slow] == [
            (p.u, p.v, p.d1, p.d2) for p in fast
        ]

    @pytest.mark.parametrize("engine", ["auto", "csr", "dict"])
    def test_top_k_unchanged_by_engine(self, shortcut_pair, engine):
        g1, g2 = shortcut_pair
        top = top_k_converging_pairs(g1, g2, k=3, engine=engine)
        assert top[0].pair == (0, 5)

    def test_raw_rows_have_index_order(self, shortcut_pair):
        g1, g2 = shortcut_pair
        rows = csr_pairs_at_threshold(g1, g2, 1)
        index = {u: i for i, u in enumerate(g1.nodes())}
        for u, v, _, _ in rows:
            assert index[u] < index[v]


NODE = st.integers(min_value=0, max_value=12)


@st.composite
def snapshot_pair_strategy(draw):
    raw = draw(st.lists(st.tuples(NODE, NODE), min_size=1, max_size=35))
    edges = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    if not edges:
        edges = [(0, 1)]
    cut = draw(st.integers(min_value=1, max_value=len(edges)))
    return Graph(edges[:cut]), Graph(edges)


@st.composite
def block_spanning_pair(draw):
    """A pair whose ``G_t1`` has 65–200 nodes, never a multiple of 64, so
    in 64-source blocks its rows span two to four blocks, the last one
    partial.  At the shipped budget the same rows fit one block.

    Node ids enter in shuffled order, isolated t1 nodes and several
    components occur, and ``G_t2`` adds edges, some to t2-only nodes.
    """
    n1 = draw(st.integers(min_value=65, max_value=200).filter(
        lambda n: n % 64
    ))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ids = list(range(n1))
    rng.shuffle(ids)
    g1 = Graph()
    for u in ids:
        g1.add_node(u)
    for _ in range(draw(st.integers(min_value=n1 // 2, max_value=2 * n1))):
        u, v = rng.sample(ids, 2)
        g1.add_edge(u, v)
    g2 = g1.copy()
    universe = n1 + draw(st.integers(min_value=0, max_value=5))
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        u, v = rng.sample(range(universe), 2)
        g2.add_edge(u, v)
    return g1, g2


def _rows(pairs):
    return [(p.u, p.v, p.d1, p.d2) for p in pairs]


#: A budget below any level block: every block is 64 sources high.
SIXTY_FOUR = 0


@contextlib.contextmanager
def sixty_four_high(g1, g2):
    """64-source blocks, checked to span several blocks of ``g1``."""
    with mock.patch.object(fastpairs, "BLOCK_CELLS", SIXTY_FOUR):
        width = max(g1.num_nodes, g2.num_nodes)
        assert fastpairs._block_height(width) == 64 < g1.num_nodes
        yield


def budgets(g1, g2):
    """The shipped :data:`~repro.core.fastpairs.BLOCK_CELLS`, then
    64-source blocks."""
    return (contextlib.nullcontext(), sixty_four_high(g1, g2))


def definition_order(g1, g2):
    """Δ keys as the definition orders them: by the first row (in
    ``G_t1``'s node order) owning a pair at that Δ, then by value."""
    nodes = list(g1.nodes())
    first = {}
    for i, u in enumerate(nodes):
        d1 = single_source_distances(g1, u)
        d2 = single_source_distances(g2, u)
        for v in nodes[i + 1:]:
            if v in d1:
                first.setdefault(d1[v] - d2[v], i)
    return sorted(first, key=lambda d: (first[d], d))


class TestEquivalenceProperty:
    @settings(max_examples=50, deadline=None)
    @given(snapshot_pair_strategy())
    def test_histogram_engines_agree(self, pair):
        g1, g2 = pair
        reference = delta_histogram(g1, g2, engine="dict")
        assert reference == delta_histogram(g1, g2, engine="csr")

    @settings(max_examples=50, deadline=None)
    @given(snapshot_pair_strategy(), st.integers(min_value=1, max_value=4))
    def test_threshold_engines_agree(self, pair, delta_min):
        g1, g2 = pair
        slow = converging_pairs_at_threshold(g1, g2, delta_min, engine="dict")
        fast = converging_pairs_at_threshold(g1, g2, delta_min, engine="csr")
        assert [(p.pair, p.d1, p.d2) for p in slow] == [
            (p.pair, p.d1, p.d2) for p in fast
        ]

    @settings(max_examples=25, deadline=None)
    @given(block_spanning_pair())
    def test_histogram_engines_agree_across_blocks(self, pair):
        g1, g2 = pair
        reference = delta_histogram(g1, g2, engine="dict")
        order = definition_order(g1, g2)
        for budget in budgets(g1, g2):
            with budget:
                hist = delta_histogram(g1, g2, engine="csr")
            assert hist == reference
            assert list(hist) == order
            assert all(
                type(d) is int and type(c) is int for d, c in hist.items()
            )

    @settings(max_examples=25, deadline=None)
    @given(block_spanning_pair(), st.integers(min_value=1, max_value=4))
    def test_threshold_engines_agree_across_blocks(self, pair, delta_min):
        g1, g2 = pair
        slow = converging_pairs_at_threshold(g1, g2, delta_min, engine="dict")
        for budget in budgets(g1, g2):
            with budget:
                fast = converging_pairs_at_threshold(
                    g1, g2, delta_min, engine="csr"
                )
            assert _rows(fast) == _rows(slow)

    @settings(max_examples=25, deadline=None)
    @given(block_spanning_pair(), st.sampled_from([1, 7, 50, 400]))
    def test_top_k_engines_agree_across_blocks(self, pair, k):
        g1, g2 = pair
        slow = top_k_converging_pairs(g1, g2, k, engine="dict")
        for budget in budgets(g1, g2):
            with budget:
                both = [
                    top_k_converging_pairs(
                        g1, g2, k, engine="csr", prune=prune
                    )
                    for prune in (False, True)
                ]
            for prune, fast in zip((False, True), both):
                assert _rows(fast) == _rows(slow), prune
                assert all(
                    type(p.d1) is int and type(p.d2) is int for p in fast
                )


class TestBlockSizing:
    """Counts, not time: how many msbfs sweeps one pass makes."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        real = fastpairs.msbfs_levels

        def counted(csr, sources, batch_size):
            calls.append(len(sources))
            return real(csr, sources, batch_size)

        monkeypatch.setattr(fastpairs, "msbfs_levels", counted)
        return calls

    @staticmethod
    def passes(g1, g2):
        delta_histogram(g1, g2)
        converging_pairs_at_threshold(g1, g2, 1)
        top_k_converging_pairs(g1, g2, 5)

    def test_heights(self):
        assert fastpairs._block_height(0) % 64 == 0
        for width in (1, 150, 1024, 9000):
            height = fastpairs._block_height(width)
            assert height % 64 == 0 and height >= 64
            assert height == 64 or height * width <= fastpairs.BLOCK_CELLS
        assert fastpairs._block_height(9000) == 64

    def test_one_sweep_per_snapshot_within_the_budget(self, sweeps):
        g1, g2 = random_snapshot_pair(num_nodes=150, num_edges=400, seed=5)
        assert fastpairs._block_height(g2.num_nodes) >= g1.num_nodes
        self.passes(g1, g2)
        assert sweeps == [g1.num_nodes] * 6

    @pytest.mark.parametrize("height", [64, 128])
    def test_blocks_of_the_height_above_it(self, sweeps, monkeypatch, height):
        g1, g2 = random_snapshot_pair(num_nodes=150, num_edges=400, seed=5)
        n1, width = g1.num_nodes, g2.num_nodes
        monkeypatch.setattr(fastpairs, "BLOCK_CELLS", height * width)
        assert fastpairs._block_height(width) == height
        self.passes(g1, g2)
        blocks = math.ceil(n1 / height)
        per_pass = [
            min(height, n1 - s) for s in range(0, n1, height) for _ in (1, 2)
        ]
        assert len(per_pass) == 2 * blocks
        assert sweeps == per_pass * 3

    def test_no_sweep_for_an_empty_graph(self, sweeps):
        assert max_delta(Graph(), Graph()) == 0.0
        assert top_k_converging_pairs(Graph(), Graph(), 3) == []
        assert sweeps == []
