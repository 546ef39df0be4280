"""All-pairs shortest paths, eccentricities, and diameter.

Exact APSP is only used to compute *ground truth* (the true top-k
converging pairs and the paper's Table 2/3 characteristics) on the
manageable-size datasets — exactly as the paper does for its evaluation.
The production algorithms never touch it; they live under the SSSP budget.

:class:`DistanceMatrix` packs the n x n distance table into a dense numpy
``float32`` array (``inf`` for unreachable) with a node-index map, so the
ground-truth pass over millions of pairs is vectorised.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances, dijkstra_distances

Node = Hashable


class DistanceMatrix:
    """Dense all-pairs distance table over an ordered node list.

    Parameters
    ----------
    nodes:
        The ordered node universe of the matrix (typically ``G_t1``'s
        nodes — the problem only scores pairs that exist at ``t1``).
    matrix:
        ``float32`` array of shape ``(len(nodes), len(nodes))`` where
        entry ``(i, j)`` is the distance and ``inf`` marks unreachable.
    """

    def __init__(self, nodes: Sequence[Node], matrix: np.ndarray) -> None:
        n = len(nodes)
        if matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {n} nodes"
            )
        self.nodes: List[Node] = list(nodes)
        self.index: Dict[Node, int] = {u: i for i, u in enumerate(self.nodes)}
        if len(self.index) != n:
            raise ValueError("duplicate nodes in DistanceMatrix universe")
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, u: Node) -> bool:
        return u in self.index

    def distance(self, u: Node, v: Node) -> float:
        """Distance between ``u`` and ``v`` (``inf`` if unreachable)."""
        return float(self.matrix[self.index[u], self.index[v]])

    def row(self, u: Node) -> np.ndarray:
        """The full distance vector from ``u`` (aligned with ``self.nodes``)."""
        return self.matrix[self.index[u]]

    def finite_pairs(self) -> int:
        """Number of unordered connected pairs (excluding self-pairs)."""
        finite = np.isfinite(self.matrix).sum() - len(self.nodes)
        return int(finite) // 2


def all_pairs_distances(
    graph: Graph, nodes: Optional[Iterable[Node]] = None
) -> DistanceMatrix:
    """Exact APSP by repeated SSSP (BFS if unweighted, Dijkstra otherwise).

    Parameters
    ----------
    graph:
        The graph to measure.
    nodes:
        Optional node universe for the matrix rows/columns.  Nodes not in
        ``graph`` get an all-``inf`` row.  This supports measuring ``G_t2``
        distances restricted to ``G_t1``'s node set, which is what the
        converging-pairs ground truth needs.
    """
    universe = list(nodes) if nodes is not None else list(graph.nodes())
    index = {u: i for i, u in enumerate(universe)}
    n = len(universe)
    weighted = graph.is_weighted()
    matrix = np.full((n, n), np.inf, dtype=np.float32)
    for i, u in enumerate(universe):
        matrix[i, i] = 0.0
        if u not in graph:
            continue
        dist = (
            dijkstra_distances(graph, u) if weighted else bfs_distances(graph, u)
        )
        for v, d in dist.items():
            j = index.get(v)
            if j is not None:
                matrix[i, j] = d
    return DistanceMatrix(universe, matrix)


def eccentricities(graph: Graph) -> Dict[Node, float]:
    """Eccentricity of every node *within its component*.

    The eccentricity of ``u`` is the largest finite distance from ``u``.
    Isolated nodes get 0.
    """
    ecc: Dict[Node, float] = {}
    weighted = graph.is_weighted()
    for u in graph.nodes():
        dist = (
            dijkstra_distances(graph, u) if weighted else bfs_distances(graph, u)
        )
        ecc[u] = max(dist.values()) if len(dist) > 1 else 0.0
    return ecc


def diameter(graph: Graph) -> float:
    """Largest finite shortest-path distance in the graph.

    For disconnected graphs this is the maximum over components (the
    convention the paper's Table 2 uses — its graphs have small
    disconnected fringes).  Returns 0 for empty/edgeless graphs.
    """
    if graph.num_nodes == 0:
        return 0.0
    ecc = eccentricities(graph)
    return max(ecc.values())


def average_distance(graph: Graph) -> float:
    """Mean distance over connected unordered pairs (0 if no such pairs)."""
    total = 0.0
    count = 0
    weighted = graph.is_weighted()
    for u in graph.nodes():
        dist = (
            dijkstra_distances(graph, u) if weighted else bfs_distances(graph, u)
        )
        for v, d in dist.items():
            if v != u:
                total += d
                count += 1
    if count == 0:
        return 0.0
    return total / count  # each unordered pair counted twice; ratio unchanged
