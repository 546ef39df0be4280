"""Micro-benchmarks of the library's hot primitives.

Unlike the experiment benches (one pedantic round around a whole paper
artefact), these use pytest-benchmark's statistical sampling: they are
the operations whose per-call cost determines how far the library scales
— loading a stream, the SSSP unit the budget counts, ground-truth
streaming, greedy covering, and the two selector archetypes.
"""

import numpy as np
import pytest

from repro.core.budget import SPBudget
from repro.core.cover import greedy_vertex_cover
from repro.core.pairgraph import PairGraph
from repro.core.pairs import converging_pairs_at_threshold, delta_histogram
from repro.datasets import EVAL_SPLIT, eval_snapshots, load
from repro.datasets.io import read_edge_stream, write_edge_stream
from repro.graph.traversal import bfs_distances
from repro.selection import get_selector


@pytest.fixture(scope="module")
def snapshot_pair():
    tg = load("facebook", scale=0.4)
    return eval_snapshots(tg)


def test_read_edge_stream(benchmark, tmp_path):
    """The load layer: read a stream file, then cut its snapshot pair."""
    path = tmp_path / "facebook.tsv"
    write_edge_stream(load("facebook", scale=1.0), path)

    def run():
        return read_edge_stream(path).snapshot_pair(*EVAL_SPLIT)

    g1, g2 = benchmark(run)
    assert g1.num_edges < g2.num_edges


def test_bfs_single_source(benchmark, snapshot_pair):
    """One SSSP — the paper's unit of budget."""
    g1, _ = snapshot_pair
    source = next(iter(g1.nodes()))
    dist = benchmark(bfs_distances, g1, source)
    assert dist[source] == 0


def test_delta_histogram_ground_truth(benchmark, snapshot_pair):
    """The full ground-truth streaming pass (n SSSP pairs)."""
    g1, g2 = snapshot_pair
    hist = benchmark.pedantic(
        delta_histogram, args=(g1, g2), kwargs={"validate": False},
        rounds=1, iterations=1,
    )
    assert sum(hist.values()) > 0


def test_greedy_cover(benchmark, snapshot_pair):
    """Greedy vertex cover over a realistic pair graph."""
    g1, g2 = snapshot_pair
    pairs = converging_pairs_at_threshold(g1, g2, 2, validate=False)
    pg = PairGraph(pairs)
    cover = benchmark(greedy_vertex_cover, pg)
    assert pg.is_vertex_cover(cover)


def test_selector_degree(benchmark, snapshot_pair):
    """The zero-SSSP selector archetype (pure ranking)."""
    g1, g2 = snapshot_pair
    selector = get_selector("DegRel")

    def run():
        return selector.select(g1, g2, 40, SPBudget(80),
                               rng=np.random.default_rng(0))

    result = benchmark(run)
    assert len(result.candidates) == 40


def test_selector_hybrid_mmsd(benchmark, snapshot_pair):
    """The SSSP-heavy selector archetype (dispersion + landmarks)."""
    g1, g2 = snapshot_pair
    selector = get_selector("MMSD")

    def run():
        return selector.select(g1, g2, 40, SPBudget(80),
                               rng=np.random.default_rng(0))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.candidates) == 40
