"""The exact ground truth pinned to answers recorded before its block rewrite.

``data/truth_pin.json`` holds one SHA-256 digest per case of
:func:`_digest`: a histogram's items in iteration order, or a pair
list's ``(u, v, d1, d2)``, each value with its Python type.  The digests
were recorded by running this module as a script
(``python tests/test_truth_pin.py <commit>``) against the commit named
in the fixture, before the unweighted engines took their rows in msbfs
blocks on both snapshots.  Do not re-record them from the code under
test: a pin recorded from the change it checks pins nothing.

Graphs: four catalog regimes at scale 0.1 (129–218 t1 nodes, so rows
span three or four 64-source blocks; actors and dblp carry t2-only
nodes), facebook with every third id a ``str``, and a pair with no
inserted edges.  Per graph: the histogram; the threshold form at
δ ∈ {Δmax, Δmax − 1, 1}; top-k at k ∈ {1, 50, #positive + 3} with and
without ``prune``.  Every case runs on the ``auto`` and ``csr``
engines, and on ``dict`` for two graphs.  The case parameters come from
the ``dict`` histogram, so they do not depend on the engines under test.
At k = 50 on actors, 664 pairs tie at the k-th Δ.
The ``csr`` digests are the retired ``incremental`` engine's, re-keyed:
at the recording commit they equalled the ``auto`` ones in every case.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import datasets
from repro.core.pairs import (
    converging_pairs_at_threshold,
    delta_histogram,
    top_k_converging_pairs,
)
from repro.graph.graph import Graph

FIXTURE = Path(__file__).resolve().parent / "data" / "truth_pin.json"

GRAPHS = (
    "actors", "internet", "facebook", "dblp", "mixed-ids", "no-insertions",
)
ENGINES = ("auto", "csr")
#: Graphs whose cases also run on the pure-Python reference engine.
DICT_GRAPHS = ("actors", "mixed-ids")
CELLS = tuple(
    [(graph, engine) for graph in GRAPHS for engine in ENGINES]
    + [(graph, "dict") for graph in DICT_GRAPHS]
)


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
def snapshots(graph: str) -> Tuple[Graph, Graph]:
    if graph == "mixed-ids":
        g1, g2 = snapshots("facebook")
        return _mixed_ids(g1), _mixed_ids(g2)
    if graph == "no-insertions":
        g1, _ = snapshots("actors")
        return g1, g1.copy()
    return datasets.eval_snapshots(datasets.load(graph, scale=0.1))


def _typed(x: object) -> List[str]:
    return [type(x).__name__, repr(x)]


def _digest(record: object) -> str:
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pairs(pairs: list) -> list:
    return [[_typed(p.u), _typed(p.v), _typed(p.d1), _typed(p.d2)]
            for p in pairs]


@functools.lru_cache(maxsize=None)
def _cases(graph: str) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """Thresholds and k values of ``graph``, from the dict histogram."""
    hist = delta_histogram(*snapshots(graph), engine="dict")
    top = max(hist)
    deltas = tuple(sorted({d for d in (top, top - 1, 1) if d > 0}))
    positive = sum(c for d, c in hist.items() if d > 0)
    return deltas, (1, 50, positive + 3)


def outcomes(graph: str, engine: str) -> Dict[str, str]:
    """Every case of one graph on one engine, keyed as in the fixture."""
    g1, g2 = snapshots(graph)
    base = f"{graph}/{engine}"
    hist = delta_histogram(g1, g2, engine=engine)
    out = {
        f"{base}/hist": _digest(
            [[_typed(d), _typed(c)] for d, c in hist.items()]
        )
    }
    deltas, ks = _cases(graph)
    for delta in deltas:
        pairs = converging_pairs_at_threshold(g1, g2, delta, engine=engine)
        out[f"{base}/threshold{delta:g}"] = _digest(_pairs(pairs))
    prunes = (False,) if engine == "dict" else (False, True)
    for k in ks:
        for prune in prunes:
            pairs = top_k_converging_pairs(
                g1, g2, k, engine=engine, prune=prune
            )
            key = f"{base}/k{k}" + ("/prune" if prune else "")
            out[key] = _digest(_pairs(pairs))
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["digests"]


def test_fixture_covers_every_cell(pinned):
    cells = {tuple(key.split("/")[:2]) for key in pinned}
    assert cells == set(CELLS)


@pytest.mark.parametrize("graph,engine", CELLS)
def test_answers_match_recorded_digests(pinned, graph, engine):
    got = outcomes(graph, engine)
    expected = {
        key: digest for key, digest in pinned.items()
        if key.startswith(f"{graph}/{engine}/")
    }
    assert sorted(got) == sorted(expected)
    changed = [key for key in sorted(got) if got[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    digests: Dict[str, str] = {}
    for graph, engine in CELLS:
        digests.update(outcomes(graph, engine))
    commit = sys.argv[1] if len(sys.argv) > 1 else "unknown"
    FIXTURE.write_text(
        json.dumps({"commit": commit, "digests": digests}, indent=1,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
