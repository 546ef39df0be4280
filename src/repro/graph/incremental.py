"""Incremental delta-BFS: repair ``G_t1`` levels into exact ``G_t2`` levels.

Every charged source in the budgeted pipeline needs *two* BFS rows — one
per snapshot — and until now paid two independent traversals for them.
But the problem model guarantees ``G_t1 ⊆ G_t2`` (insertion-only
evolution), so hop levels can only *decrease* from t1 to t2, and they
only decrease for nodes whose new shortest path crosses at least one
inserted edge.  This module exploits that: given the t1 level array of a
source, it *repairs* it into the exact t2 level array by seeding a
frontier from the endpoints of the inserted edges (plus the new nodes
reachable only through them) and relaxing just the affected region.

The machinery is two pieces:

* :class:`SnapshotDelta` — the precomputed difference between two
  snapshots: both CSR views, the t1 → t2 index alignment, and the
  inserted-edge endpoint arrays.  Built once per snapshot pair and
  reused for every source.
* :func:`repair_levels` — the repair kernel: monotone bucketed
  relaxation over the t2 adjacency, vectorised one frontier level at a
  time like :func:`repro.graph.csr.bfs_levels`, with early termination
  as soon as no remaining node can still improve.  A source's two level
  arrays are ``bfs_levels(delta.csr1, i)`` and its repair.

Exactness is the contract: the repaired array is **bit-identical** to an
independent full BFS on ``G_t2`` (the differential tests pin this
against the dict engine and networkx).  Budget semantics do not change
either — a repaired t2 traversal still *charges* as one SSSP, because
the paper's budget is denominated in SSSP results obtained, not in
edges scanned (see docs/budget-model.md and the R004 note in
docs/static-analysis.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED, _multi_arange
from repro.graph.graph import Graph

Node = Hashable


@dataclass(frozen=True)
class SnapshotDelta:
    """The precomputed difference between an insertion-only snapshot pair.

    Attributes
    ----------
    csr1 / csr2:
        Frozen CSR views of ``G_t1`` and ``G_t2`` (``csr2`` covers the
        full t2 universe, new nodes included).
    mapping:
        ``csr1 index -> csr2 index`` alignment array: ``levels2[mapping]``
        re-orders a t2 level array onto t1's node order.
    new_nodes:
        csr2 indices of nodes absent from ``G_t1``.
    edge_tails / edge_heads:
        csr2 endpoint indices of every inserted edge, listed in both
        orientations (so one scan seeds repairs in either direction).
    """

    csr1: CSRGraph
    csr2: CSRGraph
    mapping: np.ndarray
    new_nodes: np.ndarray
    edge_tails: np.ndarray
    edge_heads: np.ndarray
    seed_heads: np.ndarray
    seed_tails: np.ndarray
    seed_starts: np.ndarray

    @classmethod
    def from_graphs(cls, g1: Graph, g2: Graph) -> "SnapshotDelta":
        """Build the delta for a snapshot pair, validating ``G_t1 ⊆ G_t2``.

        The subgraph check is a hard precondition, not an optional
        validation: repair starts from the t1 levels and only ever
        lowers them, which is exact if and only if every t1 node and
        edge survives into t2.
        """
        csr1 = CSRGraph.from_graph(g1)
        csr2 = CSRGraph.from_graph(g2)
        index2 = csr2.index
        for u in csr1.nodes:
            if u not in index2:
                raise ValueError(
                    f"node {u!r} present at t1 but missing at t2: "
                    "G_t1 is not a subgraph of G_t2 "
                    "(run check_snapshot_pair for details)"
                )
        mapping = np.array([index2[u] for u in csr1.nodes], dtype=np.int64)
        is_old = np.zeros(csr2.num_nodes, dtype=bool)
        is_old[mapping] = True
        new_nodes = np.flatnonzero(~is_old)
        tails: List[int] = []
        heads: List[int] = []
        for u, v in g2.edges():
            if g1.has_edge(u, v):
                continue
            iu, iv = index2[u], index2[v]
            tails.append(iu)
            heads.append(iv)
        for u, v in g1.edges():
            if not g2.has_edge(u, v):
                raise ValueError(
                    f"edge ({u!r}, {v!r}) present at t1 but missing at t2: "
                    "G_t1 is not a subgraph of G_t2 "
                    "(run check_snapshot_pair for details)"
                )
        edge_tails = np.array(tails + heads, dtype=np.int64)
        edge_heads = np.array(heads + tails, dtype=np.int64)
        # Seed reduction layout: inserted-edge endpoints sorted by head,
        # so every repair can take the per-head minimum candidate level
        # with one C-speed ``minimum.reduceat`` instead of a slow
        # ``minimum.at`` scatter.
        if edge_heads.size:
            order = np.argsort(edge_heads, kind="stable")
            sorted_heads = edge_heads[order]
            boundary = np.flatnonzero(
                np.diff(sorted_heads, prepend=sorted_heads[0] - 1)
            )
            seed_heads = sorted_heads[boundary]
            seed_tails = edge_tails[order]
            seed_starts = boundary
        else:
            seed_heads = np.empty(0, dtype=np.int64)
            seed_tails = np.empty(0, dtype=np.int64)
            seed_starts = np.empty(0, dtype=np.int64)
        return cls(
            csr1=csr1,
            csr2=csr2,
            mapping=mapping,
            new_nodes=new_nodes,
            edge_tails=edge_tails,
            edge_heads=edge_heads,
            seed_heads=seed_heads,
            seed_tails=seed_tails,
            seed_starts=seed_starts,
        )

    @property
    def num_new_edges(self) -> int:
        """Number of undirected edges inserted between the snapshots."""
        return int(self.edge_tails.size) // 2

    @property
    def num_new_nodes(self) -> int:
        """Number of nodes that appear only in ``G_t2``."""
        return int(self.new_nodes.size)

    def source_index(self, source: Node) -> Optional[int]:
        """The source's csr1 index, or ``None`` for a t2-only node."""
        return self.csr1.index.get(source)


def repair_levels(
    delta: SnapshotDelta,
    levels1: np.ndarray,
    max_level: Optional[int] = None,
) -> np.ndarray:
    """Exact ``G_t2`` levels from a source's ``G_t1`` level array.

    ``levels1`` is the t1 level array over ``delta.csr1``'s universe
    (any integer dtype; ``UNREACHED`` where disconnected).  The returned
    array covers ``delta.csr2``'s universe with dtype ``int32`` and is
    bit-identical to ``bfs_levels(delta.csr2, source_idx2)``.

    The repair seeds a frontier from the inserted-edge endpoints
    (the only places a shorter t2 path can originate), then relaxes one
    level bucket at a time in increasing order over the full t2
    adjacency — so improvements propagate through old edges too — and
    stops as soon as no remaining node's level exceeds the frontier's
    best achievable level.  Cost is proportional to the affected region,
    not to the whole graph.

    ``max_level`` cuts the relaxation inside the affected region: the
    frontier loop stops once it would assign levels beyond the cut, so
    every returned value ≤ ``max_level`` is still exact (the limited run
    performs iterations identical to the unlimited one up to that depth)
    while deeper nodes may keep their — larger — t1 levels.  Used by the
    Δ-pruned engines (:mod:`repro.graph.prune`): targets beyond
    ``ecc1 − θ`` cannot reach ``Δ ≥ θ``, and an un-repaired node repairs
    to ``Δ = 0``, which no threshold collects.  ``None`` preserves the
    exact, bit-identical behaviour.
    """
    n1 = delta.csr1.num_nodes
    n2 = delta.csr2.num_nodes
    if levels1.shape != (n1,):
        raise ValueError(
            f"levels1 has shape {levels1.shape}, expected ({n1},)"
        )
    inf = n2  # BFS levels are < n2, so n2 is a safe "unreached" sentinel.
    dist = np.full(n2, inf, dtype=np.int32)
    dist[delta.mapping] = levels1
    dist[dist == UNREACHED] = inf  # t1-unreached old nodes
    if not delta.seed_heads.size:
        dist[dist == inf] = UNREACHED
        return dist

    # Early-termination bound: a frontier at level d assigns d + 1, which
    # can only improve nodes still above d + 1.  Levels never increase,
    # so the largest *initial* level (the sentinel, if anything starts
    # unreached) bounds every level that could still be improved.
    max_init = int(dist.max())

    # Seed: the best candidate level each inserted-edge head can get from
    # its tail's t1 level (per-head minimum over the presorted segments).
    # Tails at `inf` produce candidates above the sentinel and never win.
    mins = np.minimum.reduceat(dist[delta.seed_tails] + 1, delta.seed_starts)
    better = mins < dist[delta.seed_heads]
    if not better.any():
        dist[dist == inf] = UNREACHED
        return dist
    seeds = delta.seed_heads[better]
    seed_levels = mins[better]
    dist[seeds] = seed_levels

    # `stamp[v]` is the level at which v most recently improved; scanning
    # ``stamp == d`` recovers the level-d frontier with duplicates (and
    # nodes later re-improved to a lower level) collapsed for free.
    stamp = np.full(n2, UNREACHED, dtype=np.int32)
    stamp[seeds] = seed_levels
    d = int(seed_levels.min())
    max_pending = int(seed_levels.max())
    indptr, indices = delta.csr2.indptr, delta.csr2.indices
    while (
        d <= max_pending
        and d + 1 < max_init
        and (max_level is None or d + 1 <= max_level)
    ):
        frontier = np.flatnonzero(stamp == d)
        d += 1
        if frontier.size == 0:
            continue
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nonzero = counts > 0
        if not nonzero.any():
            continue
        gather = _multi_arange(starts[nonzero], counts[nonzero])
        neighbors = indices[gather]
        improved = neighbors[dist[neighbors] > d]
        if improved.size:
            dist[improved] = d
            stamp[improved] = d
            if d > max_pending:
                max_pending = d

    dist[dist == inf] = UNREACHED
    return dist
