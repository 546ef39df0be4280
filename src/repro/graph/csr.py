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

from itertools import chain
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
        self, nodes: List[Node], indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.index: Dict[Node, int] = {u: i for i, u in enumerate(nodes)}
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
        """
        node_list = list(nodes) if nodes is not None else list(graph.nodes())
        index = {u: i for i, u in enumerate(node_list)}
        n = len(node_list)
        if len(index) != n:
            raise ValueError("duplicate nodes in CSR universe")
        rows = [
            [index[v] for v in graph.neighbors(u) if v in index]
            for u in node_list
        ]
        counts = np.fromiter(map(len, rows), np.int64, n)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        flat = np.fromiter(chain.from_iterable(rows), np.int64, int(indptr[-1]))
        # One stable sort on owner·n + neighbour orders every row at once.
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.argsort(owner * n + flat, kind="stable")
        return cls(node_list, indptr, flat[order].astype(np.int32))

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

    Expands one whole BFS level per iteration using vectorised gathers,
    so the Python-level loop runs ``O(diameter)`` times instead of
    ``O(n)``.
    """
    n = csr.num_nodes
    if not 0 <= source_idx < n:
        raise IndexError(f"source index {source_idx} out of range [0, {n})")
    levels = np.full(n, UNREACHED, dtype=np.int32)
    levels[source_idx] = 0
    frontier = np.array([source_idx], dtype=np.int64)
    depth = 0
    indptr, indices = csr.indptr, csr.indices
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nonzero = counts > 0
        if not nonzero.any():
            break
        gather = _multi_arange(starts[nonzero], counts[nonzero])
        neighbors = indices[gather]
        fresh = neighbors[levels[neighbors] == UNREACHED]
        if fresh.size == 0:
            break
        levels[fresh] = depth
        frontier = np.flatnonzero(levels == depth)
    return levels


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


def _levels_block_task(span: "tuple[int, int]") -> np.ndarray:
    """Worker task: a contiguous block of level rows via multi-source BFS.

    Reads the shared CSR view (attached, not unpickled, when the arena
    is active) and advances the whole ``[start, stop)`` source span with
    bit-packed frontiers.
    """
    from repro.graph.msbfs import msbfs_levels
    from repro.parallel import worker_state

    state = worker_state()
    start, stop = span
    return msbfs_levels(
        state["csr"], range(start, stop), batch_size=state["batch"]
    )


def all_sources_levels(csr: CSRGraph, workers: int = 1) -> np.ndarray:
    """Dense all-pairs level matrix (``UNREACHED`` off-component).

    ``O(n)`` memory per row is materialised all at once — intended for
    the catalog-scale ground-truth pass, not million-node graphs.  Rows
    advance through the bit-parallel multi-source kernel
    (:func:`repro.graph.msbfs.msbfs_levels`, 64 sources per sweep);
    ``workers > 1`` fans contiguous source spans across a process pool
    whose workers attach the CSR arrays from a shared-memory arena.  The
    matrix is bit-identical at any worker count and batch width.
    """
    from repro.graph.msbfs import DEFAULT_BATCH, msbfs_levels

    n = csr.num_nodes
    if n == 0:
        return np.empty((0, 0), dtype=np.int32)
    if workers > 1:
        from repro.parallel import ParallelExecutor, derive_run_id

        spans = [
            (start, min(start + DEFAULT_BATCH, n))
            for start in range(0, n, DEFAULT_BATCH)
        ]
        executor = ParallelExecutor(
            workers,
            state={"csr": csr, "batch": DEFAULT_BATCH},
            shm_run_id=derive_run_id(
                "apsp.levels", n, int(csr.indices.size), DEFAULT_BATCH
            ),
        )
        blocks = executor.map(_levels_block_task, spans, unit="apsp.levels")
        return np.concatenate(blocks, axis=0)
    return msbfs_levels(csr, range(n), batch_size=DEFAULT_BATCH)
