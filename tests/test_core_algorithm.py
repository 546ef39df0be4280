"""Unit tests for repro.core.algorithm (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.budget import BudgetExceededError, SPBudget
from repro.core.cover import greedy_vertex_cover
from repro.core.pairgraph import PairGraph
from repro.core.pairs import converging_pairs_at_threshold, top_k_converging_pairs
from repro.graph.csr import UNREACHED, CSRGraph, all_sources_levels
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.graph.traversal import bfs_distances
from repro.graph.validation import GraphValidationError
from repro.selection.base import CandidateSelector, SelectionResult
from repro.selection.oracle import GreedyCoverOracle

from conftest import path_graph, random_snapshot_pair


def as_row(pair, dist):
    """A distance map as a cached row: an array in G_t1's node order."""
    row = np.full(len(pair.nodes), UNREACHED, dtype=np.int64)
    for v, d in dist.items():
        if v in pair.index:
            row[pair.index[v]] = d
    return row


class FixedSelector(CandidateSelector):
    """Test double returning a fixed candidate list (no generation cost).

    Cached rows are given as distance maps and handed back as rows of
    the query's pair.
    """

    name = "Fixed"

    def __init__(self, candidates, d1_rows=None, d2_rows=None,
                 generation_cost=0):
        self.candidates = candidates
        self.d1_rows = d1_rows or {}
        self.d2_rows = d2_rows or {}
        self.generation_cost = generation_cost

    def select(self, g1, g2, m, budget, rng=None, *, pair=None):
        if self.generation_cost:
            budget.charge("generation", "g1", self.generation_cost)
        pair = SnapshotPair.of(g1, g2, pair)
        return SelectionResult(
            candidates=list(self.candidates),
            d1_rows={c: as_row(pair, d) for c, d in self.d1_rows.items()},
            d2_rows={c: as_row(pair, d) for c, d in self.d2_rows.items()},
        )


class TestBasicOperation:
    def test_finds_pair_via_candidate(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=1, m=1, selector=FixedSelector([0])
        )
        assert result.pairs[0].pair == (0, 5)
        assert result.pairs[0].delta == 4

    def test_misses_pair_without_covering_candidate(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=1, m=1, selector=FixedSelector([2])
        )
        # Node 2's best converging partner is weaker than (0, 5).
        assert result.pairs == [] or result.pairs[0].pair != (0, 5)

    def test_no_duplicate_pairs_when_both_endpoints_selected(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=10, m=2, selector=FixedSelector([0, 5])
        )
        assert len({p.pair for p in result.pairs}) == len(result.pairs)

    def test_pairs_ranked_by_delta(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=10, m=2, selector=FixedSelector([0, 5])
        )
        deltas = [p.delta for p in result.pairs]
        assert deltas == sorted(deltas, reverse=True)

    def test_zero_delta_pairs_excluded(self, path5):
        result = find_top_k_converging_pairs(
            path5, path5, k=5, m=2, selector=FixedSelector([0, 1])
        )
        assert result.pairs == []

    def test_candidates_recorded(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=1, m=2, selector=FixedSelector([0, 3])
        )
        assert result.candidates == [0, 3]

    def test_found_pair_set(self, shortcut_pair):
        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=3, m=1, selector=FixedSelector([0])
        )
        assert (0, 5) in result.found_pair_set()


class TestArgumentValidation:
    def test_bad_k(self, shortcut_pair):
        with pytest.raises(ValueError, match="k"):
            find_top_k_converging_pairs(
                *shortcut_pair, k=0, m=1, selector=FixedSelector([0])
            )

    def test_bad_m(self, shortcut_pair):
        with pytest.raises(ValueError, match="m"):
            find_top_k_converging_pairs(
                *shortcut_pair, k=1, m=0, selector=FixedSelector([0])
            )

    def test_snapshot_validation_on_by_default(self):
        g1, g2 = path_graph(4), path_graph(3)
        with pytest.raises(GraphValidationError):
            find_top_k_converging_pairs(
                g1, g2, k=1, m=1, selector=FixedSelector([0])
            )

    def test_selector_overreturning_candidates_rejected(self, shortcut_pair):
        with pytest.raises(ValueError, match="candidates"):
            find_top_k_converging_pairs(
                *shortcut_pair, k=1, m=1, selector=FixedSelector([0, 1, 2])
            )


class TestBudget:
    def test_budget_spent_is_two_per_candidate(self, shortcut_pair):
        result = find_top_k_converging_pairs(
            *shortcut_pair, k=1, m=3, selector=FixedSelector([0, 2, 4])
        )
        assert result.budget.spent == 6
        assert result.budget.by_phase() == {"topk": 6}

    def test_cached_rows_not_recharged(self, shortcut_pair):
        g1, g2 = shortcut_pair
        from repro.graph.traversal import bfs_distances

        selector = FixedSelector(
            [0],
            d1_rows={0: dict(bfs_distances(g1, 0))},
            d2_rows={0: dict(bfs_distances(g2, 0))},
        )
        result = find_top_k_converging_pairs(g1, g2, k=1, m=1, selector=selector)
        assert result.budget.spent == 0
        assert result.pairs[0].pair == (0, 5)

    def test_generation_cost_counts_against_budget(self, shortcut_pair):
        selector = FixedSelector([0], generation_cost=1)
        result = find_top_k_converging_pairs(
            *shortcut_pair, k=1, m=2, selector=selector
        )
        assert result.budget.spent == 3  # 1 generation + 2 topk

    def test_budget_overdraft_raises(self, shortcut_pair):
        # Generation eats the whole 2m budget; candidate SSSPs overdraw.
        selector = FixedSelector([0], generation_cost=2)
        with pytest.raises(BudgetExceededError):
            find_top_k_converging_pairs(
                *shortcut_pair, k=1, m=1, selector=selector
            )

    def test_budget_limit_override(self, shortcut_pair):
        result = find_top_k_converging_pairs(
            *shortcut_pair, k=1, m=1, selector=FixedSelector([0]),
            budget_limit=None,
        )
        assert result.budget.limit is None


class TestWithOracle:
    def test_oracle_recovers_full_truth(self):
        g1, g2 = random_snapshot_pair(seed=61)
        truth = converging_pairs_at_threshold(g1, g2, 1)
        if not truth:
            pytest.skip("degenerate random instance")
        pg = PairGraph(truth)
        cover_size = len(
            find_top_k_converging_pairs(
                g1, g2, k=len(truth), m=pg.num_endpoints,
                selector=GreedyCoverOracle(pg), validate=False,
            ).candidates
        )
        result = find_top_k_converging_pairs(
            g1, g2, k=len(truth), m=max(cover_size, 1),
            selector=GreedyCoverOracle(pg), validate=False,
        )
        assert result.found_pair_set() == {p.pair for p in truth}

    def test_oracle_matches_exact_top_k(self, shortcut_pair):
        g1, g2 = shortcut_pair
        truth = top_k_converging_pairs(g1, g2, k=3)
        pg = PairGraph(truth)
        result = find_top_k_converging_pairs(
            g1, g2, k=3, m=3, selector=GreedyCoverOracle(pg)
        )
        assert result.found_pair_set() == {p.pair for p in truth}


@st.composite
def mixed_id_snapshot_pair(draw):
    """An unweighted insertion-only pair whose ids mix ``int`` and ``str``
    (so ``repr`` breaks ties), with runs of equal Δ forced in.

    Disjoint paths of one length each gain the same end-to-end chord at
    t2, so every path contributes pairs at the same Δ values.  Random
    edges among twelve more nodes, split at a random cut, add pairs of
    other shapes.
    """
    strs = draw(st.frozensets(st.integers(min_value=0, max_value=140)))

    def node(u):
        return str(u) if u in strs else u

    length = draw(st.integers(min_value=2, max_value=5))
    copies = draw(st.integers(min_value=0, max_value=3))
    old, new = [], []
    for c in range(copies):
        path = [100 + c * 10 + i for i in range(length + 1)]
        old.extend(zip(path, path[1:]))
        new.append((path[0], path[-1]))
    raw = draw(st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30,
    ))
    edges = list(dict.fromkeys(
        (min(u, v), max(u, v)) for u, v in raw if u != v
    )) or [(0, 1)]
    cut = draw(st.integers(min_value=1, max_value=len(edges)))
    g1 = Graph([(node(u), node(v)) for u, v in old + edges[:cut]])
    g2 = g1.copy()
    for u, v in new + edges[cut:]:
        g2.add_edge(node(u), node(v))
    return g1, g2


class TestCSRScoringPath:
    """The vectorised top-k phase must handle every cache mix exactly
    like the dict path (which the weighted branch still uses)."""

    def _run_both(self, g1, g2, selector, k=5, m=5):
        from repro.core import algorithm as alg

        fast = find_top_k_converging_pairs(g1, g2, k=k, m=m,
                                           selector=selector, seed=0)
        original = alg._score_candidates_csr
        alg._score_candidates_csr = (
            lambda pair, candidates, result, budget, k:
            alg._score_candidates_dict(pair, candidates, result, budget)
        )
        try:
            ref = find_top_k_converging_pairs(g1, g2, k=k, m=m,
                                              selector=selector, seed=0)
        finally:
            alg._score_candidates_csr = original
        return fast, ref

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_dict_path(self, data):
        g1, g2 = data.draw(mixed_id_snapshot_pair())
        nodes = list(g1.nodes())
        # Long prefixes make many candidate–candidate pairs, which the
        # scorer meets from both endpoints.
        order = data.draw(st.permutations(nodes))
        candidates = order[:data.draw(st.integers(1, len(nodes)))]
        cached1 = data.draw(st.sets(st.sampled_from(candidates)))
        cached2 = data.draw(st.sets(st.sampled_from(candidates)))
        selector = FixedSelector(
            candidates,
            d1_rows={c: dict(bfs_distances(g1, c)) for c in cached1},
            d2_rows={c: dict(bfs_distances(g2, c)) for c in cached2},
        )
        positive = len(top_k_converging_pairs(g1, g2, k=len(nodes) ** 2))
        k = data.draw(st.integers(min_value=1, max_value=positive + 3))
        fast, ref = self._run_both(g1, g2, selector, k=k,
                                   m=len(candidates))
        assert [(p.u, p.v, p.d1, p.d2) for p in fast.pairs] == [
            (p.u, p.v, p.d1, p.d2) for p in ref.pairs
        ]
        assert fast.budget.ledger() == ref.budget.ledger()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_all_rows_cached_and_k_at_a_tie(self, data):
        g1, g2 = data.draw(mixed_id_snapshot_pair())
        nodes = list(g1.nodes())
        order = data.draw(st.permutations(nodes))
        candidates = order[:data.draw(st.integers(1, len(nodes)))]
        # Every candidate's rows come from the selector on both snapshots,
        # so phase 2 computes and charges nothing.
        selector = FixedSelector(
            candidates,
            d1_rows={c: dict(bfs_distances(g1, c)) for c in candidates},
            d2_rows={c: dict(bfs_distances(g2, c)) for c in candidates},
        )
        everything, _ = self._run_both(g1, g2, selector, k=len(nodes) ** 2,
                                       m=len(candidates))
        deltas = [p.delta for p in everything.pairs]
        ties = [i + 1 for i in range(len(deltas) - 1)
                if deltas[i] == deltas[i + 1]]
        k = data.draw(st.sampled_from(ties)) if ties else max(len(deltas), 1)
        fast, ref = self._run_both(g1, g2, selector, k=k, m=len(candidates))
        assert [(p.u, p.v, p.d1, p.d2) for p in fast.pairs] == [
            (p.u, p.v, p.d1, p.d2) for p in ref.pairs
        ]
        assert fast.budget.spent == ref.budget.spent == 0
        assert fast.budget.ledger() == ref.budget.ledger() == ()

    def test_no_cached_rows(self, shortcut_pair):
        g1, g2 = shortcut_pair
        fast, ref = self._run_both(g1, g2, FixedSelector([0, 3]))
        assert [(p.pair, p.d1, p.d2) for p in fast.pairs] == [
            (p.pair, p.d1, p.d2) for p in ref.pairs
        ]
        assert fast.budget.spent == ref.budget.spent == 4

    def test_d1_cached_only(self, shortcut_pair):
        g1, g2 = shortcut_pair
        from repro.graph.traversal import bfs_distances

        selector = FixedSelector(
            [0], d1_rows={0: dict(bfs_distances(g1, 0))}
        )
        fast, ref = self._run_both(g1, g2, selector)
        assert fast.budget.spent == ref.budget.spent == 1
        assert fast.found_pair_set() == ref.found_pair_set()

    def test_d2_cached_only(self, shortcut_pair):
        g1, g2 = shortcut_pair
        from repro.graph.traversal import bfs_distances

        selector = FixedSelector(
            [0], d2_rows={0: dict(bfs_distances(g2, 0))}
        )
        fast, ref = self._run_both(g1, g2, selector)
        assert fast.budget.spent == ref.budget.spent == 1
        assert fast.found_pair_set() == ref.found_pair_set()

    def test_both_cached(self, shortcut_pair):
        g1, g2 = shortcut_pair
        from repro.graph.traversal import bfs_distances

        selector = FixedSelector(
            [0],
            d1_rows={0: dict(bfs_distances(g1, 0))},
            d2_rows={0: dict(bfs_distances(g2, 0))},
        )
        fast, ref = self._run_both(g1, g2, selector)
        assert fast.budget.spent == ref.budget.spent == 0
        assert fast.pairs[0].pair == (0, 5)

    def test_new_t2_nodes_do_not_confuse_alignment(self):
        # G_t2 gains nodes; level arrays must align on V_t1 only.
        g1 = Graph([(0, 1), (1, 2), (2, 3)])
        g2 = g1.copy()
        g2.add_edge(3, 9)   # new node 9
        g2.add_edge(9, 0)   # ... closing a cycle through it
        fast, ref = self._run_both(g1, g2, FixedSelector([0, 3]), k=5, m=2)
        assert fast.found_pair_set() == ref.found_pair_set()
        assert (0, 3) in fast.found_pair_set()  # 3 -> 2 via node 9

    def test_weighted_pair_uses_dict_path(self):
        g1 = Graph([(0, 1, 2.0), (1, 2, 2.0)])
        g2 = g1.copy()
        g2.add_edge(0, 2, 0.5)
        result = find_top_k_converging_pairs(
            g1, g2, k=2, m=2, selector=FixedSelector([0, 2])
        )
        assert result.pairs[0].delta == pytest.approx(3.5)


class TestBudgetLedgerPin:
    """Fresh rows are computed in blocks, yet each one still charges one
    SSSP, in candidate order — batching is an implementation detail of
    *computing* the charged rows, never a way to skip a charge."""

    def test_fresh_t2_row_charges_one_sssp(self, shortcut_pair):
        result = find_top_k_converging_pairs(
            *shortcut_pair, k=1, m=3, selector=FixedSelector([0, 2, 4])
        )
        assert result.budget.spent == 6
        assert result.budget.by_phase() == {"topk": 6}

    def test_cached_t1_row_keeps_ledger(self, shortcut_pair):
        g1, g2 = shortcut_pair
        # Candidate 0's t1 row is cached (free); its t2 row is computed
        # fresh, and the ledger must look exactly like any other single
        # g2 charge.
        selector = FixedSelector([0], d1_rows={0: dict(bfs_distances(g1, 0))})
        result = find_top_k_converging_pairs(
            g1, g2, k=1, m=1, selector=selector
        )
        assert result.budget.spent == 1
        assert result.budget.by_phase() == {"topk": 1}
        assert result.pairs[0].pair == (0, 5)

    def test_partial_caches_identical_to_uncached(self):
        g1, g2 = random_snapshot_pair(num_nodes=30, num_edges=70, seed=11)
        nodes = list(g1.nodes())
        cached = nodes[0]
        chosen = [cached, nodes[1], nodes[2]]
        # The cached t1 row is read off the all-sources level matrix.
        csr = CSRGraph.from_graph(g1)
        levels = all_sources_levels(csr)[csr.index[cached]]
        row = {v: int(d) for v, d in zip(csr.nodes, levels) if d != UNREACHED}
        selector = FixedSelector(chosen, d1_rows={cached: row})
        result = find_top_k_converging_pairs(
            g1, g2, k=5, m=3, selector=selector
        )
        assert result.budget.spent == 5
        assert result.budget.by_phase() == {"topk": 5}
        reference = find_top_k_converging_pairs(
            g1, g2, k=5, m=3, selector=FixedSelector(chosen)
        )
        assert reference.budget.spent == 6
        assert [(p.pair, p.d1, p.d2) for p in result.pairs] == [
            (p.pair, p.d1, p.d2) for p in reference.pairs
        ]


class TestPerQueryWork:
    """Counts, not time: one query validates its pair once and freezes
    each snapshot once, whatever the selector; nothing is reused from
    an earlier query on the same graphs."""

    @pytest.mark.parametrize("name", [
        "MMSD", "SumDiff", "MaxAvg", "IncDeg", "DegDiff", "CoordDiff",
    ])
    def test_two_csr_builds_and_one_check(self, monkeypatch, name):
        from repro.core import algorithm
        from repro.selection import get_selector

        g1, g2 = random_snapshot_pair(num_nodes=60, num_edges=150, seed=3)
        calls = {"csr": 0, "check": 0}
        build = CSRGraph.from_graph.__func__
        check = algorithm.check_snapshot_pair

        def counted_build(cls, graph, nodes=None):
            calls["csr"] += 1
            return build(cls, graph, nodes)

        def counted_check(a, b):
            calls["check"] += 1
            return check(a, b)

        monkeypatch.setattr(CSRGraph, "from_graph",
                            classmethod(counted_build))
        monkeypatch.setattr(algorithm, "check_snapshot_pair", counted_check)
        for query in (1, 2):
            result = find_top_k_converging_pairs(
                g1, g2, k=10, m=8, selector=get_selector(name), seed=0,
            )
            assert result.budget.spent == 2 * len(result.candidates)
            assert calls == {"csr": 2 * query, "check": query}


class TestResultRecords:
    def test_topk_result_survives_pickle(self, shortcut_pair):
        import pickle

        g1, g2 = shortcut_pair
        result = find_top_k_converging_pairs(
            g1, g2, k=3, m=3, budget_limit=None,
            selector=FixedSelector([0, 2, 4], generation_cost=2),
        )
        back = pickle.loads(pickle.dumps(result))
        assert [(p.u, p.v, p.d1, p.d2) for p in back.pairs] == [
            (p.u, p.v, p.d1, p.d2) for p in result.pairs
        ]
        assert back.candidates == result.candidates
        assert back.budget.ledger() == result.budget.ledger()
        assert back.budget.spent == result.budget.spent == 8
        assert back.budget.limit == result.budget.limit
        # The copy keeps sharing one record per distinct charge.
        ledger = back.budget.ledger()
        assert ledger[1] is ledger[3]
        back.budget.charge("topk", "g1", 1)
        assert back.budget.ledger()[-1] is ledger[1]


@st.composite
def integer_weighted_snapshot_pair(draw):
    """:func:`mixed_id_snapshot_pair` with integer weights (exact float
    sums): t1 edges keep their weight at t2, inserted edges draw one."""
    g1, g2 = draw(mixed_id_snapshot_pair())
    weight = st.sampled_from([1.0, 2.0, 3.0])
    w1 = Graph()
    for u in g1.nodes():
        w1.add_node(u)
    for u, v in g1.edges():
        w1.add_edge(u, v, draw(weight))
    w2 = w1.copy()
    for u, v in g2.edges():
        if not w2.has_edge(u, v):
            w2.add_edge(u, v, draw(weight))
    w2.add_edge("w-a", "w-b", 2.0)  # weighted even if every draw was 1.0
    return w1, w2


class TestVertexCoverRecoversTopK:
    """Paper property: a candidate set containing a vertex cover of the
    pair graph G^p_k makes Algorithm 1 return the exact top-k, ties at
    the k-th Δ included, for exactly 2 SSSPs per candidate."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), weighted=st.booleans())
    def test_cover_candidates_give_exact_top_k(self, data, weighted):
        strategy = (integer_weighted_snapshot_pair() if weighted
                    else mixed_id_snapshot_pair())
        g1, g2 = data.draw(strategy)
        positive = len(top_k_converging_pairs(
            g1, g2, k=g1.num_nodes ** 2, engine="dict"))
        k = data.draw(st.integers(min_value=1, max_value=positive + 2))
        truth = top_k_converging_pairs(g1, g2, k=k, engine="dict")
        cover = greedy_vertex_cover(PairGraph(truth)) if truth else []
        others = [u for u in g1.nodes() if u not in set(cover)]
        padding = data.draw(st.lists(st.sampled_from(others), unique=True)
                            if others else st.just([]))
        candidates = list(cover) + padding
        if not candidates:
            candidates = [next(iter(g1.nodes()))]
        result = find_top_k_converging_pairs(
            g1, g2, k=k, m=len(candidates),
            selector=FixedSelector(candidates),
        )
        assert [(p.u, p.v, p.d1, p.d2) for p in result.pairs] == [
            (p.u, p.v, p.d1, p.d2) for p in truth
        ]
        assert result.budget.spent == 2 * len(candidates)
