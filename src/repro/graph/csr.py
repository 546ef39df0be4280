"""Compressed-sparse-row graph representation with vectorised BFS.

The dict-of-dict :class:`~repro.graph.graph.Graph` is the right mutable
structure for building snapshots, but the ground-truth pass — one BFS
pair per node — dominates the experiment suite's runtime.  This module
provides a frozen, integer-indexed CSR view and a numpy frontier BFS
that expands whole levels at once, cutting the per-BFS constant by an
order of magnitude on the catalog graphs.

The CSR layer is an *accelerator*, not a second graph API: results are
bit-identical to the dict BFS (the equivalence tests enforce this), and
:mod:`repro.core.pairs` switches to it automatically for unweighted
graphs.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.graph.graph import Graph

Node = Hashable

#: Level value marking "not reached" in BFS level arrays.
UNREACHED = -1


class CSRGraph:
    """A frozen CSR adjacency over an ordered node list.

    Attributes
    ----------
    nodes:
        The node universe, in index order.
    index:
        ``node -> integer index`` map.
    indptr / indices:
        Standard CSR: the neighbors of node ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``.
    """

    __slots__ = ("nodes", "index", "indptr", "indices")

    def __init__(
        self, nodes: List[Node], indptr: np.ndarray, indices: np.ndarray,
        index: Optional[Dict[Node, int]] = None,
    ) -> None:
        self.nodes = nodes
        self.index: Dict[Node, int] = (
            dict(zip(nodes, range(len(nodes)))) if index is None else index
        )
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_graph(
        cls, graph: Graph, nodes: Optional[Sequence[Node]] = None
    ) -> "CSRGraph":
        """Freeze a :class:`Graph` into CSR form.

        ``nodes`` optionally fixes the index order / universe (defaults
        to the graph's insertion order).  Every listed node must exist in
        the graph; neighbors outside the universe are dropped, which
        supports building a ``G_t2`` view restricted to ``V_t1``.

        The arrays come from the graph's edge log
        (:meth:`Graph.edge_log`), not from its adjacency dicts: the
        log's ids are mapped onto the universe, and one sort of the
        ``row·n + col`` keys of both directions orders every row.
        """
        ids, log = graph.edge_log()
        # A copy: no numpy view of the log outlives the build.
        ends = np.array(log, dtype=np.int64).reshape(-1, 2)
        if nodes is None:
            node_list = list(ids)
            index = dict(ids)
        else:
            node_list = list(nodes)
            index = dict(zip(node_list, range(len(node_list))))
            if len(index) != len(node_list):
                raise ValueError("duplicate nodes in CSR universe")
            # Graph id -> universe index; -1 marks a node outside it.
            remap = np.full(len(ids), -1, dtype=np.int64)
            at = np.fromiter(map(ids.__getitem__, node_list), np.int64)
            remap[at] = np.arange(at.size)
            ends = remap[ends]
            ends = ends[(ends >= 0).all(axis=1)]
        n = len(node_list)
        # Both directions of every edge: its rows, and its keys row·n + col.
        rows = ends.T.ravel()
        keys = rows * n
        keys += ends[:, ::-1].T.ravel()
        # The keys are unique, and each row's keys fill that row's block,
        # so one sort orders every row at once.
        keys.sort()
        counts = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        keys -= np.repeat(np.arange(n, dtype=np.int64) * n, counts)
        return cls(node_list, indptr, keys.astype(np.int32), index)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the universe."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (within the universe)."""
        return int(self.indices.size) // 2

    def neighbors_of(self, idx: int) -> np.ndarray:
        """Neighbor index array of node index ``idx``."""
        return self.indices[self.indptr[idx] : self.indptr[idx + 1]]


def _multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (s, c) pair, vectorised.

    The classic cumsum trick; zero-count entries must be filtered out by
    the caller.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    boundaries = np.cumsum(counts[:-1])
    out[boundaries] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


def bfs_levels(csr: CSRGraph, source_idx: int) -> np.ndarray:
    """Hop levels from a source index; ``UNREACHED`` where disconnected.

    Expands one whole BFS level per iteration with an edge mask: the
    frontier's node mask, repeated over each row's CSR entries, selects
    the neighbours of every frontier node in one boolean gather, and the
    next frontier is ``levels == depth``.  The Python loop runs
    ``O(diameter)`` times, and every level reads all ``2m`` entries: a
    long thin graph pays that per level (docs/perf.md, "Algorithm 1
    per-query overhead").
    """
    n = csr.num_nodes
    if not 0 <= source_idx < n:
        raise IndexError(f"source index {source_idx} out of range [0, {n})")
    levels = np.full(n, UNREACHED, dtype=np.int32)
    levels[source_idx] = 0
    counts = np.diff(csr.indptr)
    indices = csr.indices
    frontier = levels == 0
    depth = 0
    while True:
        depth += 1
        neighbors = indices[np.repeat(frontier, counts)]
        fresh = neighbors[levels[neighbors] == UNREACHED]
        if fresh.size == 0:
            return levels
        levels[fresh] = depth
        frontier = levels == depth


def bfs_distances_fast(graph: Graph, source: Node) -> Dict[Node, int]:
    """Drop-in :func:`repro.graph.traversal.bfs_distances` replacement.

    Freezes the graph, runs the vectorised BFS, and returns the same
    reachable-only dict.  Only worth it when the CSR view is reused; for
    one-off queries the conversion dominates, so the traversal module's
    dict BFS remains the default.
    """
    csr = CSRGraph.from_graph(graph)
    levels = bfs_levels(csr, csr.index[source])
    reached = np.flatnonzero(levels != UNREACHED)
    return {csr.nodes[i]: int(levels[i]) for i in reached}


def all_sources_levels(csr: CSRGraph) -> np.ndarray:
    """Dense all-pairs level matrix (``UNREACHED`` off-component).

    ``O(n)`` memory per row is materialised all at once — intended for
    the catalog-scale ground-truth pass, not million-node graphs.  Rows
    advance through the bit-parallel multi-source kernel
    (:func:`repro.graph.msbfs.msbfs_levels`, 64 sources per sweep).
    """
    from repro.graph.msbfs import DEFAULT_BATCH, msbfs_levels

    n = csr.num_nodes
    if n == 0:
        return np.empty((0, 0), dtype=np.int32)
    return msbfs_levels(csr, range(n), batch_size=DEFAULT_BATCH)
