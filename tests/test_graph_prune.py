"""Property and unit tests for the Δ-aware pruning layer.

:mod:`repro.graph.prune` promises that skipping and level-cutting
traversals never changes any observable output.  This suite pins the
primitives (bound validity, cut exactness, running k-th tracking) and
the end-to-end law — pruned == unpruned == networkx — under hypothesis,
including the adversarial shapes pruning could plausibly break: ties at
the k-th Δ, sources that exist only at t2, and disconnected pairs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import path_graph, random_snapshot_pair, to_networkx
from repro.core.pairs import (
    ConvergingPair,
    canonical_pair,
    top_k_converging_pairs,
)
from repro.graph.csr import CSRGraph, UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.incremental import SnapshotDelta, repair_levels
from repro.graph.prune import (
    NO_PAIRS,
    KthTracker,
    PrunePlan,
    PruneStats,
    bounded_bfs_levels,
    source_bound,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
NODE = st.integers(min_value=0, max_value=14)


@st.composite
def edge_list(draw, max_edges=40):
    raw = draw(
        st.lists(st.tuples(NODE, NODE), min_size=1, max_size=max_edges)
    )
    edges = []
    seen = set()
    for u, v in raw:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return edges or [(0, 1)]


@st.composite
def snapshot_pair(draw):
    """Insertion-only pair; t2-only nodes arise whenever an edge past the
    cut touches a node no earlier edge did."""
    edges = draw(edge_list())
    cut = draw(st.integers(min_value=1, max_value=len(edges)))
    g1 = Graph(edges[:cut])
    g2 = Graph(edges)
    return g1, g2


@st.composite
def tied_snapshot_pair(draw):
    """A snapshot pair engineered to tie many pairs at the k-th Δ.

    Several disjoint paths of the *same* length each gain the same
    end-to-end chord at t2, so every path contributes pairs at identical
    Δ values — any k cutting through them exercises the tie boundary.
    """
    length = draw(st.integers(min_value=3, max_value=6))
    copies = draw(st.integers(min_value=2, max_value=4))
    g1 = Graph()
    g2 = Graph()
    for c in range(copies):
        base = 100 * c
        for i in range(length):
            g1.add_edge(base + i, base + i + 1)
            g2.add_edge(base + i, base + i + 1)
        g2.add_edge(base, base + length)
    return g1, g2


def nx_top_k(g1, g2, k):
    """Independent networkx ground truth with the library's tie-break."""
    import networkx as nx

    nx1, nx2 = to_networkx(g1), to_networkx(g2)
    pairs = []
    nodes = list(g1.nodes())
    for i, u in enumerate(nodes):
        d1 = nx.single_source_shortest_path_length(nx1, u)
        d2 = nx.single_source_shortest_path_length(nx2, u)
        for v in nodes[i + 1:]:
            if v not in d1:
                continue  # disconnected at t1: never a converging pair
            if d1[v] - d2[v] > 0:
                cu, cv = canonical_pair(u, v)
                pairs.append(ConvergingPair(cu, cv, d1[v], d2[v]))
    pairs.sort(key=ConvergingPair.sort_key)
    return pairs[:k]


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestBoundedBFS:
    def test_uncut_matches_full_bfs_modulo_sentinel(self):
        g1, g2 = random_snapshot_pair(seed=3)
        csr = CSRGraph.from_graph(g2)
        for i in range(csr.num_nodes):
            full = bfs_levels(csr, i)
            cut = bounded_bfs_levels(csr, i, None)
            expected = full.copy()
            expected[expected == UNREACHED] = csr.num_nodes
            assert np.array_equal(cut, expected)

    def test_levels_within_cut_are_exact(self):
        g1, g2 = random_snapshot_pair(seed=4)
        csr = CSRGraph.from_graph(g2)
        for i in range(0, csr.num_nodes, 7):
            full = bfs_levels(csr, i)
            for max_level in (0, 1, 2, 5):
                cut = bounded_bfs_levels(csr, i, max_level)
                within = cut <= max_level
                assert np.array_equal(cut[within], full[within])
                # Everything else is the above-any-level sentinel, never
                # UNREACHED: a -1 would fake a convergence downstream.
                assert (cut[~within] == csr.num_nodes).all()

    def test_source_out_of_range(self):
        csr = CSRGraph.from_graph(path_graph(3))
        with pytest.raises(IndexError):
            bounded_bfs_levels(csr, 3, 1)


class TestRepairLevelsCut:
    def test_none_is_bit_identical(self):
        g1, g2 = random_snapshot_pair(seed=5)
        delta = SnapshotDelta.from_graphs(g1, g2)
        for i in range(delta.csr1.num_nodes):
            lv1 = bfs_levels(delta.csr1, i)
            assert np.array_equal(
                repair_levels(delta, lv1),
                repair_levels(delta, lv1, max_level=None),
            )

    def test_values_within_cut_are_exact(self):
        g1, g2 = random_snapshot_pair(seed=6)
        delta = SnapshotDelta.from_graphs(g1, g2)
        for i in range(0, delta.csr1.num_nodes, 5):
            lv1 = bfs_levels(delta.csr1, i)
            exact = repair_levels(delta, lv1)
            for max_level in (0, 1, 3, 6):
                cut = repair_levels(delta, lv1, max_level=max_level)
                within = (cut != UNREACHED) & (cut <= max_level)
                assert np.array_equal(cut[within], exact[within])


class TestSourceBound:
    def test_bound_dominates_every_delta(self):
        g1, g2 = random_snapshot_pair(seed=7)
        delta = SnapshotDelta.from_graphs(g1, g2)
        plan = PrunePlan.from_delta(delta)
        for i in range(delta.csr1.num_nodes):
            lv1 = bfs_levels(delta.csr1, i)
            lv2 = repair_levels(delta, lv1)[delta.mapping]
            reached = lv1 != UNREACHED
            deltas = lv1[reached] - lv2[reached]
            best = int(deltas.max()) if deltas.size else 0
            bound = source_bound(lv1, plan)
            if bound == NO_PAIRS:
                assert best <= 0
            else:
                assert bound >= best

    def test_no_inserted_edges_means_no_pairs(self):
        g = path_graph(5)
        delta = SnapshotDelta.from_graphs(g, g.copy())
        plan = PrunePlan.from_delta(delta)
        assert plan.seed_idx1.size == 0
        lv1 = bfs_levels(delta.csr1, 0)
        assert source_bound(lv1, plan) == NO_PAIRS

    def test_unreachable_endpoints_mean_no_pairs(self):
        # Source component never touches the inserted edge: skippable.
        g1 = Graph([(0, 1), (10, 11), (11, 12)])
        g2 = g1.copy()
        g2.add_edge(10, 12)
        delta = SnapshotDelta.from_graphs(g1, g2)
        plan = PrunePlan.from_delta(delta)
        lv_source0 = bfs_levels(delta.csr1, delta.csr1.index[0])
        assert source_bound(lv_source0, plan) == NO_PAIRS
        lv_source10 = bfs_levels(delta.csr1, delta.csr1.index[10])
        assert source_bound(lv_source10, plan) >= 1


class TestKthTracker:
    def test_threshold_is_one_until_full(self):
        t = KthTracker(3)
        assert t.threshold == 1
        t.offer(np.array([5, 4]))
        assert t.threshold == 1
        t.offer(np.array([3]))
        assert t.threshold == 3

    def test_running_kth_over_batches(self):
        t = KthTracker(2)
        t.offer(np.array([1, 9, 2]))
        assert t.threshold == 2
        t.offer(np.array([7]))
        assert t.threshold == 7
        t.offer(np.array([3]))  # below the running 2nd: no change
        assert t.threshold == 7

    def test_nonpositive_values_ignored(self):
        t = KthTracker(1)
        t.offer(np.array([0, -4]))
        assert t.threshold == 1
        t.offer(np.array([2]))
        assert t.threshold == 2

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KthTracker(0)

    @given(
        st.lists(
            st.integers(min_value=-3, max_value=20), min_size=0, max_size=40
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_offline_kth(self, values, k):
        t = KthTracker(k)
        for v in values:
            t.offer(np.array([v]))
        positive = sorted((v for v in values if v > 0), reverse=True)
        expected = positive[k - 1] if len(positive) >= k else 1
        assert t.threshold == expected


class TestPruneStats:
    def test_counters_partition_sources(self):
        from repro.core.fastpairs import csr_top_k_rows

        g1, g2 = random_snapshot_pair(seed=8)
        stats = PruneStats()
        csr_top_k_rows(g1, g2, 5, stats=stats)
        assert stats.sources == g1.num_nodes
        assert stats.skipped + stats.cut + stats.full == stats.sources
        assert stats.as_dict() == {
            "sources": stats.sources,
            "skipped": stats.skipped,
            "cut": stats.cut,
            "full": stats.full,
        }


# ----------------------------------------------------------------------
# End-to-end equivalence laws
# ----------------------------------------------------------------------
SUPPRESS = [HealthCheck.too_slow]


class TestPrunedEquivalence:
    @settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
    @given(snapshot_pair(), st.integers(min_value=1, max_value=12))
    def test_top_k_pruned_equals_unpruned_equals_networkx(self, pair, k):
        g1, g2 = pair
        expected = nx_top_k(g1, g2, k)
        for prune in (False, True):
            assert top_k_converging_pairs(g1, g2, k, prune=prune) == expected

    @settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
    @given(tied_snapshot_pair(), st.integers(min_value=1, max_value=10))
    def test_ties_at_the_kth_delta_survive_pruning(self, pair, k):
        g1, g2 = pair
        expected = nx_top_k(g1, g2, k)
        for prune in (False, True):
            assert top_k_converging_pairs(g1, g2, k, prune=prune) == expected

    def test_disconnected_pairs_never_surface(self):
        # Two t1 components; only one gains a shortcut.  Cross-component
        # pairs are disconnected at t1 and must not appear, pruned or not.
        g1 = Graph([(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)])
        g2 = g1.copy()
        g2.add_edge(0, 3)
        ref = top_k_converging_pairs(g1, g2, 10)
        assert ref  # the shortcut does create converging pairs
        for p in ref:
            assert {p.u, p.v} <= {0, 1, 2, 3}
        assert top_k_converging_pairs(g1, g2, 10, prune=True) == ref

    def test_t2_only_sources_are_ignored_identically(self):
        # Node 99 exists only at t2; its pairs have no t1 distance and
        # are outside the problem.  Pruning must agree.
        g1 = path_graph(6)
        g2 = g1.copy()
        g2.add_edge(0, 5)
        g2.add_edge(99, 3)
        ref = top_k_converging_pairs(g1, g2, 8)
        assert all(99 not in (p.u, p.v) for p in ref)
        assert top_k_converging_pairs(g1, g2, 8, prune=True) == ref

    def test_prune_rejects_dict_engine_and_weighted_graphs(self):
        g1, g2 = random_snapshot_pair(seed=9)
        with pytest.raises(ValueError, match="prune"):
            top_k_converging_pairs(g1, g2, 3, engine="dict", prune=True)
        w1 = Graph()
        w1.add_edge("a", "b", weight=2.0)
        w2 = w1.copy()
        w2.add_edge("a", "c", weight=1.0)
        with pytest.raises(ValueError, match="prune"):
            top_k_converging_pairs(w1, w2, 3, prune=True)
