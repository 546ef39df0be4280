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
"""

from __future__ import annotations

from typing import (
    Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple,
)

Node = Hashable
Edge = Tuple[Node, Node]


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

    __slots__ = ("_adj", "_weighted")

    def __init__(self, edges: Optional[Iterable[tuple]] = None) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        # Cached :meth:`is_weighted`; ``None`` means unknown, rescanned
        # on the next call.
        self._weighted: Optional[bool] = False
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
        nbrs = self._adj.setdefault(u, {})
        if weight != 1.0:
            self._weighted = True
        elif self._weighted and nbrs.get(v, 1.0) != 1.0:
            self._weighted = None  # re-weighted to 1.0
        nbrs[v] = weight
        self._adj.setdefault(v, {})[u] = weight

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        if self._adj[u][v] != 1.0:
            self._weighted = None
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, u: Node) -> None:
        """Remove ``u`` and all incident edges; raises ``KeyError`` if absent."""
        if self._weighted:
            self._weighted = None
        for v in list(self._adj[u]):
            del self._adj[v][u]
        del self._adj[u]

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
        # graph is unweighted, any other one rescans on demand.
        g._weighted = False if self._weighted is False else None
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
