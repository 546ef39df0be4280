"""Algorithm 1 pinned to outcomes recorded before its row-source rewrite.

``data/algorithm1_pin.json`` holds one SHA-256 digest per case of
:func:`_outcome`: the pairs ``(u, v, d1, d2)`` with the Python type of
every value, the candidates with theirs, and ``budget.ledger()``.  The
digests were recorded by running this module as a script
(``python tests/test_algorithm1_pin.py``) against the commit named in
the fixture, before Algorithm 1 took its rows from one
:class:`~repro.graph.pair.SnapshotPair`.  Do not re-record them from the
code under test: a pin recorded from the change it checks pins nothing.

Cases: every model-free selector except IncBet (exact betweenness is
too slow here), on two small catalog regimes, a graph mixing ``int`` and
``str`` ids, a weighted regime and a pair weighted only at t2 (whose t1
distances stay ``int``), × m ∈ {5, 20} × k ∈ {1, 20}.  Call 2 runs
every cell twice on the same graph objects, so a query that left state
behind for the next one would fail the pin.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import datasets
from repro.core.algorithm import find_top_k_converging_pairs
from repro.datasets.catalog import internet_weighted
from repro.graph.graph import Graph
from repro.selection import get_selector

FIXTURE = Path(__file__).resolve().parent / "data" / "algorithm1_pin.json"

SELECTORS = (
    "Degree", "DegDiff", "DegRel", "MaxMin", "MaxAvg", "SumDiff", "MaxDiff",
    "MMSD", "MMMD", "MASD", "MAMD", "IncDeg", "IncDeg2", "IncRecv",
    "CoordDiff",
)
GRAPHS = ("actors", "dblp", "mixed-ids", "weighted", "t2-weighted")
GRID = tuple((m, k) for m in (5, 20) for k in (1, 20))
#: How many times each cell runs, back to back on the same graphs.
CALLS = (1, 2)


def _mixed_ids(g: Graph) -> Graph:
    """``g`` with every third node id turned into a ``str``."""
    name = {u: str(u) if u % 3 == 0 else u for u in g.nodes()}
    out = Graph()
    for u in g.nodes():
        out.add_node(name[u])
    for u, v, w in g.weighted_edges():
        out.add_edge(name[u], name[v], w)
    return out


@functools.lru_cache(maxsize=None)
def snapshots(graph: str):
    if graph == "weighted":
        return datasets.eval_snapshots(internet_weighted(scale=0.05))
    if graph == "t2-weighted":  # unit weights at t1, inserted edges weigh 2
        g1, g2 = datasets.eval_snapshots(datasets.load("dblp", 0.05))
        g2 = g2.copy()
        for u, v in list(g2.edges()):
            if not g1.has_edge(u, v):
                g2.add_edge(u, v, 2.0)
        return g1, g2
    if graph == "mixed-ids":
        g1, g2 = datasets.eval_snapshots(datasets.load("facebook", 0.05))
        return _mixed_ids(g1), _mixed_ids(g2)
    return datasets.eval_snapshots(datasets.load(graph, scale=0.05))


def _typed(x) -> list:
    return [type(x).__name__, repr(x)]


def _outcome(graph: str, selector: str, m: int, k: int) -> str:
    g1, g2 = snapshots(graph)
    result = find_top_k_converging_pairs(
        g1, g2, k=k, m=m, selector=get_selector(selector), seed=3,
    )
    record = {
        "pairs": [[_typed(p.u), _typed(p.v), _typed(p.d1), _typed(p.d2)]
                  for p in result.pairs],
        "candidates": [_typed(c) for c in result.candidates],
        "ledger": [[r.phase, r.snapshot, r.count]
                   for r in result.budget.ledger()],
    }
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(graph: str, selector: str, m: int, k: int) -> str:
    return f"{graph}/{selector}/m{m}/k{k}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("calls", CALLS)
@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_outcome_matches_recorded_digest(pinned, graph, selector, calls):
    changed = [
        f"{_key(graph, selector, m, k)}#{call}"
        for m, k in GRID for call in range(1, calls + 1)
        if _outcome(graph, selector, m, k)
        != pinned[_key(graph, selector, m, k)]
    ]
    assert changed == []


if __name__ == "__main__":
    digests = {
        _key(graph, selector, m, k): _outcome(graph, selector, m, k)
        for graph in GRAPHS for selector in SELECTORS for m, k in GRID
    }
    commit = sys.argv[1] if len(sys.argv) > 1 else "unknown"
    FIXTURE.write_text(
        json.dumps({"commit": commit, "digests": digests}, indent=1,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
