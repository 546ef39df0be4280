"""Property-based tests (hypothesis) for the core invariants.

These pin down the *laws* the library is built on rather than specific
examples: distance monotonicity under insertion-only evolution, the
vertex-cover semantics of the pair graph, the exactness of the coverage
equivalence, budget arithmetic, and scaling/ordering properties of the
ML substrate.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.budget import SPBudget
from repro.core.cover import greedy_max_coverage, greedy_vertex_cover
from repro.core.evaluation import candidate_pair_coverage, coverage
from repro.core.pairgraph import PairGraph
from repro.core.pairs import (
    canonical_pair,
    converging_pairs_at_threshold,
    delta_histogram,
    k_for_delta_threshold,
    top_k_converging_pairs,
)
from repro.experiments import ExperimentConfig, result_to_dict
from repro.experiments import table5
from repro.experiments.runner import coverage_cells
from repro.graph.dynamic import TemporalGraph
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances
from repro.ml.scaling import MinMaxScaler
from repro.parallel import ParallelExecutor, worker_state

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
NODE = st.integers(min_value=0, max_value=14)


@st.composite
def edge_list(draw, max_edges=40):
    """A list of distinct undirected edges over a small node universe."""
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
    return edges or [(0, 1)]  # all-self-loop draws degenerate to one edge


@st.composite
def snapshot_pair(draw):
    """An insertion-only snapshot pair built from a random edge stream."""
    edges = draw(edge_list())
    cut = draw(st.integers(min_value=1, max_value=len(edges)))
    g1 = Graph(edges[:cut])
    g2 = Graph(edges)
    return g1, g2


@st.composite
def pair_list(draw):
    """A list of node pairs (edges of a pair graph)."""
    return draw(edge_list(max_edges=25))


# ----------------------------------------------------------------------
# Graph laws
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(edge_list())
    def test_handshake_lemma(self, edges):
        g = Graph(edges)
        assert sum(g.degrees().values()) == 2 * g.num_edges

    @given(edge_list())
    def test_bfs_distances_satisfy_triangle_on_edges(self, edges):
        g = Graph(edges)
        source = next(iter(g.nodes()))
        dist = bfs_distances(g, source)
        for u, v in g.edges():
            if u in dist and v in dist:
                assert abs(dist[u] - dist[v]) <= 1

    @given(snapshot_pair())
    def test_distances_monotone_under_insertion(self, pair):
        g1, g2 = pair
        for source in g1.nodes():
            d1 = bfs_distances(g1, source)
            d2 = bfs_distances(g2, source)
            for v, dv in d1.items():
                assert d2[v] <= dv

    @given(edge_list())
    def test_subgraph_of_all_nodes_is_identity(self, edges):
        g = Graph(edges)
        assert g.subgraph(list(g.nodes())) == g


class TestTemporalProperties:
    @given(edge_list(), st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1))
    def test_snapshots_nested_by_fraction(self, edges, f1, f2):
        tg = TemporalGraph([(t, u, v) for t, (u, v) in enumerate(edges)])
        lo, hi = min(f1, f2), max(f1, f2)
        g1 = tg.snapshot_at_fraction(lo)
        g2 = tg.snapshot_at_fraction(hi)
        for u, v in g1.edges():
            assert g2.has_edge(u, v)


# ----------------------------------------------------------------------
# Ground-truth laws
# ----------------------------------------------------------------------
class TestPairProperties:
    @given(NODE, NODE)
    def test_canonical_pair_idempotent_symmetric(self, u, v):
        assert canonical_pair(u, v) == canonical_pair(v, u)
        assert canonical_pair(*canonical_pair(u, v)) == canonical_pair(u, v)

    @given(snapshot_pair())
    def test_histogram_nonnegative_support(self, pair):
        hist = delta_histogram(*pair)
        assert all(d >= 0 for d in hist)
        assert all(c > 0 for c in hist.values())

    @given(snapshot_pair())
    def test_threshold_count_matches_collection(self, pair):
        g1, g2 = pair
        hist = delta_histogram(g1, g2)
        for delta in (1, 2, 3):
            pairs = converging_pairs_at_threshold(g1, g2, delta)
            assert len(pairs) == k_for_delta_threshold(hist, delta)

    @given(snapshot_pair(), st.integers(min_value=1, max_value=10))
    def test_top_k_sorted_unique_positive(self, pair, k):
        top = top_k_converging_pairs(*pair, k=k)
        assert len(top) <= k
        deltas = [p.delta for p in top]
        assert deltas == sorted(deltas, reverse=True)
        assert all(d > 0 for d in deltas)
        assert len({p.pair for p in top}) == len(top)

    @given(snapshot_pair())
    def test_delta_bounded_by_d1_minus_1(self, pair):
        g1, g2 = pair
        for p in converging_pairs_at_threshold(g1, g2, 1):
            assert p.delta <= p.d1 - 1  # d2 >= 1 for distinct nodes
            assert p.d2 >= 1

    @given(snapshot_pair(), NODE, st.integers(min_value=0, max_value=16))
    def test_adding_an_edge_at_t2_never_lowers_a_delta(self, pair, u, v):
        # v may name a node absent from both snapshots (a new node).
        g1, g2 = pair
        assume(u != v)
        grown = g2.copy()
        grown.add_edge(u, v)
        before = {p.pair: p.delta
                  for p in converging_pairs_at_threshold(g1, g2, 1)}
        after = {p.pair: p.delta
                 for p in converging_pairs_at_threshold(g1, grown, 1)}
        assert all(after.get(pair_, 0) >= d for pair_, d in before.items())
        # Δ = 0 pairs can only rise, so every tail count can only grow.
        hist, grown_hist = delta_histogram(g1, g2), delta_histogram(g1, grown)
        assert sum(hist.values()) == sum(grown_hist.values())
        for delta in range(1, max(hist) + 1):
            assert k_for_delta_threshold(grown_hist, delta) >= (
                k_for_delta_threshold(hist, delta)
            )

    @given(snapshot_pair(), st.integers(min_value=1, max_value=12),
           st.sets(NODE))
    def test_relabelling_to_mixed_ids_keeps_the_top_k_up_to_ties(
        self, pair, k, as_str
    ):
        """Ties break by ``repr``, so relabelled ids may reorder the pairs
        tied at the k-th Δ; the Δ multiset and every pair strictly above
        the k-th Δ stay put."""
        g1, g2 = pair
        name = {u: str(u) if u in as_str else u for u in g2.nodes()}

        def relabel(g: Graph) -> Graph:
            out = Graph()
            for u in g.nodes():
                out.add_node(name[u])
            for u, v in g.edges():
                out.add_edge(name[u], name[v])
            return out

        top = top_k_converging_pairs(g1, g2, k)
        renamed = top_k_converging_pairs(relabel(g1), relabel(g2), k)
        assert [p.delta for p in renamed] == [p.delta for p in top]
        kth = top[-1].delta if len(top) == k else 0
        assert {
            frozenset((name[p.u], name[p.v])) for p in top if p.delta > kth
        } == {frozenset(p.pair) for p in renamed if p.delta > kth}


# ----------------------------------------------------------------------
# Cover laws
# ----------------------------------------------------------------------
class TestCoverProperties:
    @given(pair_list())
    def test_greedy_cover_is_a_cover(self, pairs):
        pg = PairGraph(pairs)
        assert pg.is_vertex_cover(greedy_vertex_cover(pg))

    @given(pair_list())
    def test_cover_size_bounds(self, pairs):
        pg = PairGraph(pairs)
        cover = greedy_vertex_cover(pg)
        if pg.num_pairs:
            # At least one node per matching edge; at most one per pair.
            assert 1 <= len(cover) <= pg.num_pairs
            assert len(cover) <= pg.num_endpoints

    @given(pair_list(), st.integers(min_value=0, max_value=10))
    def test_max_coverage_is_cover_prefix(self, pairs, budget):
        pg = PairGraph(pairs)
        full = greedy_vertex_cover(pg)
        assert greedy_max_coverage(pg, budget) == full[:budget]

    @given(pair_list(), st.integers(min_value=0, max_value=10))
    def test_coverage_monotone_in_budget(self, pairs, budget):
        pg = PairGraph(pairs)
        a = pg.coverage_of(greedy_max_coverage(pg, budget))
        b = pg.coverage_of(greedy_max_coverage(pg, budget + 1))
        assert b >= a


# ----------------------------------------------------------------------
# Metric laws
# ----------------------------------------------------------------------
class TestMetricProperties:
    @given(pair_list(), pair_list())
    def test_coverage_in_unit_interval(self, found, truth):
        c = coverage(found, truth)
        assert 0.0 <= c <= 1.0

    @given(pair_list())
    def test_self_coverage_is_one(self, pairs):
        assert coverage(pairs, pairs) == 1.0

    @given(pair_list(), st.sets(NODE, max_size=8))
    def test_candidate_coverage_matches_pairgraph(self, pairs, candidates):
        pg = PairGraph(pairs)
        assert candidate_pair_coverage(candidates, pg.pairs()) == pytest.approx(
            pg.coverage_of(candidates)
        )


# ----------------------------------------------------------------------
# Budget laws
# ----------------------------------------------------------------------
class TestBudgetProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=20))
    def test_ledger_conservation(self, counts):
        budget = SPBudget(None)
        for i, c in enumerate(counts):
            budget.charge(f"p{i % 3}", "g1" if i % 2 else "g2", c)
        assert budget.spent == sum(counts)
        assert sum(budget.by_phase().values()) == budget.spent
        assert sum(budget.by_snapshot().values()) == budget.spent

    @given(st.integers(min_value=0, max_value=50),
           st.lists(st.integers(min_value=1, max_value=5), max_size=30))
    def test_limit_never_exceeded(self, limit, counts):
        from repro.core.budget import BudgetExceededError

        budget = SPBudget(limit)
        for c in counts:
            try:
                budget.charge("p", "g1", c)
            except BudgetExceededError:
                pass
        assert budget.spent <= limit


# ----------------------------------------------------------------------
# Parallel execution laws
# ----------------------------------------------------------------------
def _scaled_negate(x: int) -> int:
    """Picklable task for the executor properties (reads worker state)."""
    return -x * worker_state().get("scale", 1)


class TestParallelDeterminism:
    """Worker count and chunk size are execution details, never results."""

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=12),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=6),
    )
    def test_map_equals_serial_for_any_layout(self, items, workers, chunk):
        expected = [-x * 2 for x in items]
        executor = ParallelExecutor(
            workers, state={"scale": 2}, chunk_size=chunk
        )
        assert executor.map(_scaled_negate, items) == expected

    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=4),
    )
    def test_exported_report_bytes_worker_independent(self, seed, chunk):
        """Same seed + same config ⇒ byte-identical exported report,
        regardless of worker count or chunk size."""
        config = ExperimentConfig(
            scale=0.15, budget=6, budget_sweep=(3, 6), delta_offsets=(0,),
            repeats=1, datasets=("facebook",), incbet_pivots=8,
            seed=seed, workers=1, experiment="table5",
        )
        specs = [
            ("facebook", name, m, 0)
            for name in ("Degree", "SumDiff")
            for m in (3, 6)
        ]
        serial_cells = coverage_cells(specs, config)
        parallel_cells = coverage_cells(
            specs, dataclasses.replace(config, workers=2), chunk_size=chunk
        )
        assert json.dumps(parallel_cells) == json.dumps(serial_cells)

        # What `experiment --json` writes, byte for byte.
        def export(workers: int) -> str:
            result = table5.run(dataclasses.replace(config, workers=workers))
            return json.dumps(result_to_dict(result), indent=2, sort_keys=True)

        assert export(2) == export(1)


# ----------------------------------------------------------------------
# ML substrate laws
# ----------------------------------------------------------------------
class TestScalerProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3,
            ),
            min_size=2, max_size=30,
        )
    )
    def test_output_within_range_on_training_data(self, rows):
        X = np.array(rows)
        out = MinMaxScaler().fit_transform(X)
        assert (out >= -1.0 - 1e-9).all()
        assert (out <= 1.0 + 1e-9).all()

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=30,
        )
    )
    def test_order_preserved(self, values):
        X = np.array(values).reshape(-1, 1)
        out = MinMaxScaler().fit_transform(X).ravel()
        for i in range(len(values) - 1):
            if values[i] < values[i + 1]:
                assert out[i] <= out[i + 1]
