"""Unit tests for repro.core.pairs — the ground-truth machinery."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import (
    ConvergingPair,
    _ranked,
    _ranked_top,
    canonical_pair,
    converging_pairs_at_threshold,
    delta_histogram,
    k_for_delta_threshold,
    max_delta,
    pair_delta,
    pairs_as_set,
    top_k_converging_pairs,
)
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.graph.validation import GraphValidationError

from conftest import path_graph, random_snapshot_pair


class TestCanonicalPair:
    def test_orders_comparable(self):
        assert canonical_pair(5, 2) == (2, 5)
        assert canonical_pair(2, 5) == (2, 5)

    def test_orders_incomparable_by_repr(self):
        a, b = canonical_pair("x", 1)
        assert {a, b} == {"x", 1}
        assert canonical_pair("x", 1) == canonical_pair(1, "x")


class TestConvergingPair:
    def test_delta(self):
        p = ConvergingPair(1, 2, d1=5, d2=2)
        assert p.delta == 3
        assert p.pair == (1, 2)

    def test_sort_key_orders_by_delta_then_id(self):
        a = ConvergingPair(1, 2, 5, 1)  # delta 4
        b = ConvergingPair(0, 3, 5, 2)  # delta 3
        c = ConvergingPair(0, 9, 4, 1)  # delta 3
        assert sorted([c, b, a], key=ConvergingPair.sort_key) == [a, b, c]

    def test_frozen(self):
        p = ConvergingPair(1, 2, 5, 2)
        with pytest.raises(AttributeError):
            p.d1 = 7

    def test_slotted_copies_keep_equality_and_hash(self):
        p = ConvergingPair(1, "x", 5, 2)
        assert not hasattr(p, "__dict__")
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q is not p
            assert q == p and hash(q) == hash(p)
            assert (q.u, q.v, q.d1, q.d2) == (1, "x", 5, 2)
        assert p != ConvergingPair(1, "x", 5, 3)
        assert len({p, ConvergingPair(1, "x", 5, 2)}) == 1


class TestPairDelta:
    def test_shortcut(self, shortcut_pair):
        g1, g2 = shortcut_pair
        assert pair_delta(g1, g2, 0, 5) == 4
        assert pair_delta(g1, g2, 1, 5) == 2
        assert pair_delta(g1, g2, 2, 3) == 0

    def test_disconnected_pair_is_none(self, two_components):
        g2 = two_components.copy()
        g2.add_edge(2, 10)
        assert pair_delta(two_components, g2, 0, 10) is None


class TestDeltaHistogram:
    def test_shortcut_histogram(self, shortcut_pair):
        g1, g2 = shortcut_pair
        hist = delta_histogram(g1, g2)
        # Path 0..5 + chord (0,5): pair deltas are
        # (0,5):4, (0,4):2, (1,5):2, (0,3):0... let's check the totals.
        assert hist[4] == 1
        assert hist[2] == 2
        assert sum(hist.values()) == 15  # C(6,2) connected pairs

    def test_total_equals_connected_pairs(self):
        g1, g2 = random_snapshot_pair(seed=41)
        hist = delta_histogram(g1, g2)
        from repro.graph.components import count_disconnected_pairs

        n = g1.num_nodes
        connected = n * (n - 1) // 2 - count_disconnected_pairs(g1)
        assert sum(hist.values()) == connected

    def test_no_change_all_zero(self, path5):
        hist = delta_histogram(path5, path5)
        assert set(hist) == {0}

    def test_validation_runs(self):
        g1 = path_graph(4)
        g2 = path_graph(3)
        with pytest.raises(GraphValidationError):
            delta_histogram(g1, g2)

    def test_validation_skippable(self, shortcut_pair):
        g1, g2 = shortcut_pair
        assert delta_histogram(g1, g2, validate=False) == delta_histogram(g1, g2)


class TestMaxDelta:
    def test_shortcut(self, shortcut_pair):
        assert max_delta(*shortcut_pair) == 4

    def test_no_change(self, path5):
        assert max_delta(path5, path5) == 0

    def test_empty_graph(self):
        assert max_delta(Graph(), Graph()) == 0.0


class TestKForThreshold:
    def test_counts(self, shortcut_pair):
        hist = delta_histogram(*shortcut_pair)
        assert k_for_delta_threshold(hist, 4) == 1
        assert k_for_delta_threshold(hist, 2) == 3
        assert k_for_delta_threshold(hist, 1) == 3
        assert k_for_delta_threshold(hist, 5) == 0


class TestPairsAtThreshold:
    def test_exact_set(self, shortcut_pair):
        g1, g2 = shortcut_pair
        pairs = converging_pairs_at_threshold(g1, g2, 2)
        assert pairs_as_set(pairs) == {(0, 5), (0, 4), (1, 5)}

    def test_sorted_by_delta(self, shortcut_pair):
        pairs = converging_pairs_at_threshold(*shortcut_pair, 2)
        deltas = [p.delta for p in pairs]
        assert deltas == sorted(deltas, reverse=True)

    def test_threshold_must_be_positive(self, shortcut_pair):
        with pytest.raises(ValueError, match="positive"):
            converging_pairs_at_threshold(*shortcut_pair, 0)

    def test_endpoints_canonical(self, shortcut_pair):
        for p in converging_pairs_at_threshold(*shortcut_pair, 1):
            assert (p.u, p.v) == canonical_pair(p.u, p.v)

    def test_distances_recorded(self, shortcut_pair):
        pairs = converging_pairs_at_threshold(*shortcut_pair, 4)
        assert pairs[0].d1 == 5 and pairs[0].d2 == 1


class TestTopK:
    def test_exact_top_one(self, shortcut_pair):
        g1, g2 = shortcut_pair
        top = top_k_converging_pairs(g1, g2, k=1)
        assert top[0].pair == (0, 5)
        assert top[0].delta == 4

    def test_top_three(self, shortcut_pair):
        top = top_k_converging_pairs(*shortcut_pair, k=3)
        assert pairs_as_set(top) == {(0, 5), (0, 4), (1, 5)}

    def test_k_larger_than_positive_pairs(self, shortcut_pair):
        top = top_k_converging_pairs(*shortcut_pair, k=100)
        assert len(top) == 3  # only pairs with delta > 0

    def test_no_converging_pairs(self, path5):
        assert top_k_converging_pairs(path5, path5, k=5) == []

    def test_k_must_be_positive(self, shortcut_pair):
        with pytest.raises(ValueError):
            top_k_converging_pairs(*shortcut_pair, k=0)

    def test_deterministic_under_ties(self):
        g1, g2 = random_snapshot_pair(seed=42)
        a = top_k_converging_pairs(g1, g2, k=10)
        b = top_k_converging_pairs(g1, g2, k=10)
        assert [p.pair for p in a] == [p.pair for p in b]

    def test_tie_break_order_pinned_across_engines_and_prune(self):
        """Regression pin: the exact ordering of equal-Δ pairs.

        Two disjoint path-plus-chord gadgets produce tied Δ groups
        (Δ = 3 twice, Δ = 1 four times).  The ranking inside each group
        is fixed by ``sort_key``'s ``(−Δ, repr(u), repr(v))`` — pinned
        here literally so no engine (and in particular no pruned
        engine, whose collection order differs) can silently reorder
        ties at or below the k-th Δ.
        """
        from repro.graph.graph import Graph

        g1, g2 = Graph(), Graph()
        for base in (0, 100):
            for i in range(4):
                g1.add_edge(base + i, base + i + 1)
                g2.add_edge(base + i, base + i + 1)
            g2.add_edge(base, base + 4)
        expected = [
            (0, 4), (100, 104),            # Δ = 3, tied: "0" < "100"
            (0, 3), (1, 4),                # Δ = 1, tied: repr order
            (100, 103), (101, 104),
        ]
        for engine in ("csr", "dict"):
            for prune in (False, True):
                if prune and engine == "dict":
                    continue
                for k in range(1, len(expected) + 1):
                    top = top_k_converging_pairs(
                        g1, g2, k=k, engine=engine, prune=prune
                    )
                    assert [p.pair for p in top] == expected[:k], (
                        f"engine={engine} prune={prune} k={k}"
                    )

    def test_matches_brute_force(self):
        g1, g2 = random_snapshot_pair(num_nodes=25, num_edges=60, seed=43)
        from repro.graph.apsp import all_pairs_distances

        nodes = list(g1.nodes())
        dm1 = all_pairs_distances(g1)
        dm2 = all_pairs_distances(g2, nodes=nodes)
        brute = []
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                d1 = dm1.distance(u, v)
                if math.isinf(d1):
                    continue
                delta = d1 - dm2.distance(u, v)
                if delta > 0:
                    cu, cv = canonical_pair(u, v)
                    brute.append(ConvergingPair(cu, cv, d1, dm2.distance(u, v)))
        brute.sort(key=ConvergingPair.sort_key)
        k = min(10, len(brute))
        top = top_k_converging_pairs(g1, g2, k=k)
        assert [p.pair for p in top] == [p.pair for p in brute[:k]]

    def test_prefix_property(self):
        g1, g2 = random_snapshot_pair(seed=44)
        top10 = top_k_converging_pairs(g1, g2, k=10)
        top5 = top_k_converging_pairs(g1, g2, k=5)
        assert [p.pair for p in top5] == [p.pair for p in top10[:5]]

    @pytest.mark.parametrize("engine", ["csr", "dict"])
    def test_takes_the_callers_pair(self, shortcut_pair, monkeypatch, engine):
        g1, g2 = shortcut_pair
        pair = SnapshotPair.from_graphs(g1, g2)
        expected = top_k_converging_pairs(g1, g2, k=3, engine=engine)

        def no_build(cls, *args):
            raise AssertionError("built a second pair")

        monkeypatch.setattr(SnapshotPair, "from_graphs", classmethod(no_build))
        top = top_k_converging_pairs(g1, g2, k=3, engine=engine, pair=pair)
        assert top == expected
        with pytest.raises(ValueError, match="other snapshots"):
            top_k_converging_pairs(
                g1, g2.copy(), k=3, engine=engine, pair=pair
            )

    @pytest.mark.parametrize("engine", ["csr", "dict"])
    def test_histogram_and_threshold_take_the_callers_pair(
        self, shortcut_pair, monkeypatch, engine
    ):
        g1, g2 = shortcut_pair
        pair = SnapshotPair.from_graphs(g1, g2)
        hist = delta_histogram(g1, g2, engine=engine)
        at_two = converging_pairs_at_threshold(g1, g2, 2, engine=engine)

        def no_build(cls, *args):
            raise AssertionError("built a second pair")

        monkeypatch.setattr(SnapshotPair, "from_graphs", classmethod(no_build))
        shared = delta_histogram(g1, g2, engine=engine, pair=pair)
        assert list(shared.items()) == list(hist.items())
        assert converging_pairs_at_threshold(
            g1, g2, 2, engine=engine, pair=pair
        ) == at_two
        with pytest.raises(ValueError, match="other snapshots"):
            delta_histogram(g1.copy(), g2, engine=engine, pair=pair)
        with pytest.raises(ValueError, match="other snapshots"):
            converging_pairs_at_threshold(
                g1, g2.copy(), 2, engine=engine, pair=pair
            )


#: Rows ``(u, v, d1, d2)`` as the collectors return them: mixed id
#: types (so canonical order falls back to repr), many tied Δs.
raw_rows = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 30), st.sampled_from(["a", "b", "10"])),
        st.one_of(st.integers(0, 30), st.sampled_from(["a", "b", "10"])),
        st.integers(1, 6),
        st.integers(0, 3),
    ).filter(lambda row: row[0] != row[1] and row[2] > row[3]),
    max_size=60,
)


class TestRankedTop:
    @settings(max_examples=100, deadline=None)
    @given(raw_rows, st.integers(1, 70))
    def test_equals_sorting_every_row(self, rows, k):
        top = _ranked_top(rows, k)
        assert [(p.u, p.v, p.d1, p.d2) for p in top] == [
            (p.u, p.v, p.d1, p.d2) for p in _ranked(rows)[:k]
        ]

