"""One distance-row source per snapshot pair (Algorithm 1's 2m rows).

Algorithm 1 obtains every distance row it pays for — the selectors'
generation rows and the scorer's phase-2 rows — through
:func:`pair_rows` over a :class:`SnapshotPair` built once per query.  A
row is an array in ``G_t1``'s node order with ``UNREACHED`` (−1) where a
node is unreachable; ``G_t2`` rows are re-indexed onto that order, which
drops t2-only nodes (no scored pair has one as an endpoint).

``pair_rows`` charges nothing.  Its callers charge one ledger record per
row at the call site, in the order the ledger has always had: a charge
inside a batched call would reorder the scorer's interleaved g1/g2
records (docs/perf.md, "Algorithm 1 row source").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.msbfs import msbfs_levels
from repro.graph.traversal import single_source_distances

Node = Hashable


@dataclass(frozen=True, eq=False)
class SnapshotPair:
    """Both snapshots of one query with the node order rows align to.

    ``csr1``/``csr2`` and ``mapping`` (csr1 index → csr2 index) exist on
    unweighted pairs only; weighted rows come from Dijkstra on ``g1`` and
    ``g2``.  Build one per query and pass it explicitly — nothing here is
    cached across queries.  A stream's windows chain explicitly instead:
    :meth:`after` builds the next window's pair on the previous pair's
    ``csr2``.
    """

    g1: Graph
    g2: Graph
    weighted: bool
    nodes: List[Node]
    index: Dict[Node, int]
    csr1: Optional[CSRGraph] = None
    csr2: Optional[CSRGraph] = None
    mapping: Optional[np.ndarray] = None

    @classmethod
    def from_graphs(cls, g1: Graph, g2: Graph) -> "SnapshotPair":
        """Freeze a pair; ``ValueError`` if a ``G_t1`` node is missing at t2."""
        return cls._freeze(g1, g2, None)

    @classmethod
    def after(cls, previous: "SnapshotPair", g2: Graph) -> "SnapshotPair":
        """The pair ``(previous.g2, g2)``, whose ``csr1`` is ``previous.csr2``.

        A stream's next window starts where the previous one ended, so
        the CSR view of its ``G_t1`` is already built; ``previous.g2``
        must not have changed since ``previous`` froze it.  A weighted
        ``previous`` has no CSR view to pass on.
        """
        return cls._freeze(previous.g2, g2, previous.csr2)

    @classmethod
    def _freeze(
        cls, g1: Graph, g2: Graph, csr1: Optional[CSRGraph]
    ) -> "SnapshotPair":
        if not g1.adjacency_map().keys() <= g2.adjacency_map().keys():
            missing = next(u for u in g1.nodes() if u not in g2)
            raise ValueError(
                f"node {missing!r} present at t1 but missing at t2: G_t1 is "
                "not a subgraph of G_t2 (run check_snapshot_pair)"
            )
        if g1.is_weighted() or g2.is_weighted():
            nodes = list(g1.nodes())
            index = {u: i for i, u in enumerate(nodes)}
            return cls(g1, g2, True, nodes, index)
        if csr1 is None:
            csr1 = CSRGraph.from_graph(g1)
        csr2 = CSRGraph.from_graph(g2)
        n1 = len(csr1.nodes)
        if csr2.nodes[:n1] == csr1.nodes:
            # G_t2 grown on a copy of G_t1 (snapshot_pair, stream
            # windows) lists G_t1's nodes first.
            mapping = np.arange(n1, dtype=np.int64)
        else:
            mapping = np.fromiter(
                map(csr2.index.__getitem__, csr1.nodes), np.int64, n1
            )
        return cls(g1, g2, False, csr1.nodes, csr1.index, csr1, csr2, mapping)

    @classmethod
    def of(
        cls, g1: Graph, g2: Graph, pair: Optional["SnapshotPair"]
    ) -> "SnapshotPair":
        """A new pair when ``pair`` is ``None``, else ``pair`` itself.

        A pair built over other graph objects raises ``ValueError``:
        its rows would silently describe another query.
        """
        if pair is None:
            return cls.from_graphs(g1, g2)
        if pair.g1 is not g1 or pair.g2 is not g2:
            raise ValueError("pair was built over other snapshots than g1/g2")
        return pair


def pair_rows(
    pair: SnapshotPair, sources: Sequence[Node], snapshot: str
) -> np.ndarray:
    """``(len(sources), n1)`` distance rows on ``snapshot`` ("g1"/"g2").

    Unweighted pairs take one multi-source BFS block (a lone source takes
    :func:`~repro.graph.csr.bfs_levels`, which beat a one-lane sweep on
    all 24 catalog snapshots, by 1.3-2.6x) and return ``int32`` hop
    levels.  Weighted pairs run one SSSP per source, into ``float64`` —
    or ``int64`` for a snapshot whose edges all weigh 1, which keeps the
    hop counts ints.
    """
    if snapshot not in ("g1", "g2"):
        raise ValueError(f"snapshot must be 'g1' or 'g2', got {snapshot!r}")
    n = len(pair.nodes)
    if pair.weighted:
        graph = pair.g1 if snapshot == "g1" else pair.g2
        dtype = np.float64 if graph.is_weighted() else np.int64
        # Nodes outside G_t1 land in a spare last column, cut off below.
        out = np.full((len(sources), n + 1), UNREACHED, dtype=dtype)
        for row, source in zip(out, sources):
            dist = single_source_distances(graph, source)
            at = np.fromiter(
                (pair.index.get(v, n) for v in dist), np.int64, len(dist)
            )
            row[at] = np.fromiter(dist.values(), dtype, len(dist))
        return out[:, :n]
    csr = pair.csr1 if snapshot == "g1" else pair.csr2
    assert csr is not None and pair.mapping is not None
    idx = [csr.index[s] for s in sources]
    if len(idx) == 1:
        rows = bfs_levels(csr, idx[0])[None, :]
    else:
        rows = msbfs_levels(csr, idx)
    return rows if snapshot == "g1" else rows[:, pair.mapping]
