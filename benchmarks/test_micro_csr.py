"""Micro-benchmarks: dict BFS vs the CSR fast path.

Quantifies the accelerator that backs the ground-truth engine: the same
BFS semantics through the dict adjacency, through the frozen CSR view,
and through the 64-lane multi-source kernel over every source, plus the
end-to-end Δ-histogram comparison.  The CSR build of each snapshot and
the pair's validation are the uncharged work every Algorithm 1 query
pays before its first traversal; the build reads the graph's edge log,
and after a removal it first rebuilds that log.  ``test_block_budget`` records the
evidence for the ground truth's block height
(:data:`repro.core.fastpairs.BLOCK_CELLS`).
"""

import time
from unittest import mock

import pytest

from repro.core import fastpairs
from repro.core.pairs import converging_pairs_at_threshold, delta_histogram
from repro.datasets import eval_snapshots, load
from repro.graph.csr import CSRGraph, bfs_levels
from repro.graph.msbfs import DEFAULT_BATCH, msbfs_levels
from repro.graph.traversal import bfs_distances
from repro.graph.validation import check_snapshot_pair

from conftest import emit


@pytest.fixture(scope="module")
def snapshots():
    return eval_snapshots(load("internet", scale=0.5))


@pytest.fixture(scope="module")
def csr(snapshots):
    return CSRGraph.from_graph(snapshots[0])


def test_bfs_dict_engine(benchmark, snapshots):
    g1, _ = snapshots
    source = next(iter(g1.nodes()))
    dist = benchmark(bfs_distances, g1, source)
    assert dist[source] == 0


def test_bfs_csr_engine(benchmark, snapshots, csr):
    source_idx = 0
    levels = benchmark(bfs_levels, csr, source_idx)
    assert levels[source_idx] == 0


@pytest.mark.parametrize("snapshot", ["g1", "g2", "g2-rebuilt"])
def test_csr_from_graph(benchmark, snapshots, snapshot):
    """The build from each snapshot's edge log, and ``g2-rebuilt``: a
    ``G_t2`` whose log a removal dropped, so each round's build first
    rebuilds the log from the adjacency."""
    graph = snapshots[snapshot != "g1"]
    if snapshot == "g2-rebuilt":
        u, v = next(graph.edges())

        def dropped():
            g = graph.copy()
            g.remove_edge(u, v)
            g.add_edge(u, v)
            return (g,), {}

        csr = benchmark.pedantic(
            CSRGraph.from_graph, setup=dropped, rounds=200
        )
    else:
        csr = benchmark(CSRGraph.from_graph, graph)
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_edges == graph.num_edges


def test_check_snapshot_pair(benchmark, snapshots):
    g1, g2 = snapshots
    assert benchmark(check_snapshot_pair, g1, g2) is None


def test_msbfs_all_sources(benchmark, csr):
    sources = range(csr.num_nodes)
    levels = benchmark(msbfs_levels, csr, sources, DEFAULT_BATCH)
    assert levels.shape == (csr.num_nodes, csr.num_nodes)
    assert levels.diagonal().tolist() == [0] * csr.num_nodes


def test_delta_histogram_dict_engine(benchmark, snapshots):
    g1, g2 = snapshots
    hist = benchmark.pedantic(
        delta_histogram, args=(g1, g2),
        kwargs={"validate": False, "engine": "dict"},
        rounds=1, iterations=1,
    )
    assert sum(hist.values()) > 0


def test_delta_histogram_csr_engine(benchmark, snapshots):
    g1, g2 = snapshots
    hist = benchmark.pedantic(
        delta_histogram, args=(g1, g2),
        kwargs={"validate": False, "engine": "csr"},
        rounds=1, iterations=1,
    )
    assert sum(hist.values()) > 0


def test_engines_agree(snapshots):
    g1, g2 = snapshots
    assert delta_histogram(g1, g2, validate=False, engine="dict") == (
        delta_histogram(g1, g2, validate=False, engine="csr")
    )


def _truth_pass(g1, g2):
    """One histogram pass plus one threshold pass at δ = Δmax − 1."""
    hist = delta_histogram(g1, g2, validate=False, engine="csr")
    delta = max(1, max(hist) - 1)
    pairs = converging_pairs_at_threshold(
        g1, g2, delta, validate=False, engine="csr"
    )
    return list(hist.items()), [(p.u, p.v, p.d1, p.d2) for p in pairs]


@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("dataset", ["actors", "internet", "facebook", "dblp"])
def test_block_budget(dataset, scale):
    """64-source blocks against the sized height: same answers, and the
    best of five interleaved passes of each, printed."""
    g1, g2 = eval_snapshots(load(dataset, scale=scale, seed=7))
    width = max(g1.num_nodes, g2.num_nodes)
    budgets = {"64": 0, "sized": fastpairs.BLOCK_CELLS}
    best = dict.fromkeys(budgets, float("inf"))
    answers = {}
    for _ in range(5):
        for name, cells in budgets.items():
            with mock.patch.object(fastpairs, "BLOCK_CELLS", cells):
                start = time.perf_counter()
                answers[name] = _truth_pass(g1, g2)
                best[name] = min(best[name], time.perf_counter() - start)
    assert answers["64"] == answers["sized"]
    height = fastpairs._block_height(width)
    emit(
        f"{dataset}@{scale:g} (n1={g1.num_nodes}, n2={g2.num_nodes}): "
        f"64-source blocks {best['64'] * 1e3:.2f} ms, "
        f"{height}-source blocks {best['sized'] * 1e3:.2f} ms"
    )
