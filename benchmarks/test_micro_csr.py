"""Micro-benchmarks: dict BFS vs the CSR fast path.

Quantifies the accelerator that backs the ground-truth engine: the same
BFS semantics through the dict adjacency, through the frozen CSR view,
and through the 64-lane multi-source kernel over every source, plus the
end-to-end Δ-histogram comparison.  The CSR build of each snapshot and
the pair's validation are the uncharged work every Algorithm 1 query
pays before its first traversal.
"""

import pytest

from repro.core.pairs import delta_histogram
from repro.datasets import eval_snapshots, load
from repro.graph.csr import CSRGraph, bfs_levels
from repro.graph.msbfs import DEFAULT_BATCH, msbfs_levels
from repro.graph.traversal import bfs_distances
from repro.graph.validation import check_snapshot_pair


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


@pytest.mark.parametrize("snapshot", [0, 1], ids=["g1", "g2"])
def test_csr_from_graph(benchmark, snapshots, snapshot):
    graph = snapshots[snapshot]
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
