"""Compact undirected graph with optional edge weights.

The :class:`Graph` class is the static-graph workhorse of the library.  It
stores an adjacency map ``node -> {neighbor: weight}``; unweighted graphs
simply carry weight ``1.0`` on every edge, which keeps a single code path
for BFS (hop counts) and Dijkstra (weighted distances).

Design notes
------------
* Nodes may be any hashable object; the synthetic generators use ``int``.
* The graph is *simple*: self loops are rejected and parallel edges
  collapse (re-adding an edge updates its weight).
* Mutation is insertion-oriented (``add_node`` / ``add_edge``), matching
  the paper's growth-only dynamic model.  ``remove_edge`` / ``remove_node``
  exist for completeness and for building test fixtures.
* Beside the adjacency the graph keeps an *edge log* (:meth:`edge_log`):
  dense node ids in insertion order and each undirected edge's id pair
  once, which the CSR build (:mod:`repro.graph.csr`) reads instead of
  looking up every adjacency entry.  Insertions extend it; a removal or
  a direct adjacency write drops it, and the next read rebuilds it.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import (
    Dict, Final, Hashable, Iterable, Iterator, Mapping, Optional, Tuple,
)

import numpy as np

Node = Hashable
Edge = Tuple[Node, Node]

#: The edge log's item type: C ``int``, four bytes, read as ``numpy.int32``.
_LOG_TYPECODE: Final = "i"


class Graph:
    """An undirected, optionally weighted, simple graph.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples used
        to seed the graph.

    Examples
    --------
    >>> g = Graph([(1, 2), (2, 3, 5.0)])
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.weight(2, 3)
    5.0
    """

    __slots__ = ("_adj", "_weighted", "_ids", "_log")

    def __init__(self, edges: Optional[Iterable[tuple]] = None) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        # Cached :meth:`is_weighted`; ``None`` means unknown, rescanned
        # on the next call.
        self._weighted: Optional[bool] = False
        # The edge log (:meth:`edge_log`); ``_ids`` is ``None`` once a
        # write the log does not follow has dropped it.
        self._ids: Optional[Dict[Node, int]] = {}
        self._log: array[int] = array(_LOG_TYPECODE)
        if edges is not None:
            for edge in edges:
                if len(edge) == 2:
                    u, v = edge
                    self.add_edge(u, v)
                else:
                    u, v, w = edge
                    self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, u: Node) -> None:
        """Add an isolated node (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = {}
            if self._ids is not None:
                self._ids[u] = len(self._ids)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}``; nodes are created as needed.

        Re-adding an existing edge overwrites its weight.  Self loops are
        rejected because shortest-path semantics never use them and the
        paper's graphs are simple.
        """
        if u == v:
            raise ValueError(f"self loops are not allowed (node {u!r})")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        adj, ids = self._adj, self._ids
        nbrs = adj.get(u)
        if nbrs is None:
            nbrs = adj[u] = {}
            if ids is not None:
                ids[u] = len(ids)
        other = adj.get(v)
        if other is None:
            other = adj[v] = {}
            if ids is not None:
                ids[v] = len(ids)
        if v not in nbrs:
            if ids is not None:
                log = self._log
                log.append(ids[u])
                log.append(ids[v])
        elif self._weighted and weight == 1.0 and nbrs[v] != 1.0:
            self._weighted = None  # re-weighted to 1.0
        if weight != 1.0:
            self._weighted = True
        nbrs[v] = weight
        other[u] = weight

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        if self._adj[u][v] != 1.0:
            self._weighted = None
        del self._adj[u][v]
        del self._adj[v][u]
        self._drop_log()

    def remove_node(self, u: Node) -> None:
        """Remove ``u`` and all incident edges; raises ``KeyError`` if absent."""
        if self._weighted:
            self._weighted = None
        for v in list(self._adj[u]):
            del self._adj[v][u]
        del self._adj[u]
        self._drop_log()

    def _drop_log(self) -> None:
        """Forget the edge log; :meth:`edge_log` rebuilds it."""
        self._ids = None
        self._log = array(_LOG_TYPECODE)

    def add_edges_from(self, edges: Iterable[tuple]) -> None:
        """Bulk :meth:`add_edge` from ``(u, v)`` / ``(u, v, w)`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            else:
                self.add_edge(edge[0], edge[1], edge[2])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, u: Node) -> bool:
        return u in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        The representative orientation is the one whose endpoint was seen
        first during iteration; callers that need canonical pairs should
        normalise with :func:`repro.core.pairs.canonical_pair`.
        """
        seen = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def weighted_edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Like :meth:`edges` but yielding ``(u, v, weight)``."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, u: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``u``; raises ``KeyError`` if absent."""
        return iter(self._adj[u])

    def adjacency(self, u: Node) -> Dict[Node, float]:
        """The internal ``{neighbor: weight}`` mapping of ``u`` (do not mutate)."""
        return self._adj[u]

    def adjacency_map(self) -> Mapping[Node, Mapping[Node, float]]:
        """The internal ``node -> {neighbor: weight}`` mapping (do not mutate).

        Whole-graph passes read it to compare key views (``keys() <=``)
        or to flatten neighbour lists without a method call per node.
        """
        return self._adj

    def edge_log(self) -> Tuple[Mapping[Node, int], array[int]]:
        """Dense node ids and each undirected edge's id pair, once.

        Ids number the nodes ``0 .. n − 1`` in insertion order, the
        order of :meth:`nodes`.  The log is a flat ``array("i")`` with
        one edge's two ids at positions ``2e`` and ``2e + 1``, edges in
        the order they were added, or by lower id after a rebuild.  Do
        not mutate either, and hold no buffer view of the log: an
        ``array`` cannot grow while one is alive.

        :meth:`add_node` and :meth:`add_edge` extend both when a node or
        an edge is new, and :meth:`copy` copies them.  A removal or a
        :meth:`subgraph` drops them; they are rebuilt here, once, from
        the adjacency on the next call.
        """
        if self._ids is None:
            adj = self._adj
            ids = dict(zip(adj, range(len(adj))))
            rows = list(adj.values())
            counts = np.fromiter(map(len, rows), np.int64, len(rows))
            ends = np.fromiter(
                map(ids.__getitem__, chain.from_iterable(rows)),
                np.int32, int(counts.sum()),
            )
            owners = np.repeat(np.arange(len(rows), dtype=np.int32), counts)
            # Each edge appears in both rows; the lower id's row keeps it.
            kept = owners < ends
            log = array(_LOG_TYPECODE)
            log.frombytes(np.stack((owners[kept], ends[kept]), 1).tobytes())
            # The log first: a set ``_ids`` marks it valid.
            self._log = log
            self._ids = ids
        return self._ids, self._log

    def degree(self, u: Node) -> int:
        """Number of neighbors of ``u``.  Nodes absent from the graph have
        degree 0 — the paper compares degrees across snapshots where a node
        may not yet exist in the earlier one, so this is deliberately
        forgiving."""
        nbrs = self._adj.get(u)
        return len(nbrs) if nbrs is not None else 0

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._adj[u][v]

    def degrees(self) -> Dict[Node, int]:
        """Mapping of every node to its degree."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def density(self) -> float:
        """Edge density ``2m / (n (n - 1))``; 0.0 for graphs with < 2 nodes."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def is_weighted(self) -> bool:
        """True if any edge carries a weight different from 1.0.

        O(1): the answer is cached and kept by the mutators.  Only after
        a change that may have dropped the last non-unit weight (a
        removal, a re-weighting to 1.0, a subgraph) is it recomputed,
        once, by a scan of the edges.
        """
        if self._weighted is None:
            self._weighted = any(w != 1.0 for _, _, w in self.weighted_edges())
        return self._weighted

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """An independent deep copy of the graph."""
        g = Graph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._weighted = self._weighted
        if self._ids is None:
            g._drop_log()
        else:
            g._ids, g._log = dict(self._ids), self._log[:]
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes`` (unknown nodes are ignored)."""
        keep = {u for u in nodes if u in self._adj}
        g = Graph()
        for u in keep:
            g.add_node(u)
            for v, w in self._adj[u].items():
                if v in keep:
                    g._adj[u][v] = w
        # The direct writes bypass add_edge: a subgraph of an unweighted
        # graph is unweighted, any other one rescans on demand, and its
        # edge log is rebuilt on its first read.
        g._weighted = False if self._weighted is False else None
        g._drop_log()
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
