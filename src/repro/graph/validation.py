"""Structural validation and repair for snapshot pairs.

The problem definition silently assumes several structural facts:
``G_t1`` is a subgraph of ``G_t2`` (insertion-only evolution), both are
simple undirected graphs, and edge weights never increase.  Violating any
of these makes "distance decrease" meaningless, so the public entry points
validate their inputs eagerly with these helpers instead of producing
garbage rankings.

:func:`check_snapshot_pair` *detects* a breach; its companion
:func:`repair_snapshot_pair` *projects* the later snapshot onto the
nearest valid superset of the earlier one — restoring every deleted node
and edge and clamping every increased weight — and reports exactly what
it changed.  Repair is the "the stream had a deletion but the sweep must
go on" escape hatch used by ``ConvergenceMonitor`` under
``on_invalid_window="repair"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Tuple

from repro.graph.graph import Graph

Node = Hashable


class GraphValidationError(ValueError):
    """Raised when a graph or snapshot pair violates problem assumptions."""


def check_simple(graph: Graph) -> None:
    """Verify the graph is simple with positive weights.

    :class:`~repro.graph.graph.Graph` enforces this on construction; the
    check exists to guard graphs deserialised or built through internal
    state by power users.
    """
    for u, v, w in graph.weighted_edges():
        if u == v:
            raise GraphValidationError(f"self loop at node {u!r}")
        if w <= 0:
            raise GraphValidationError(
                f"non-positive weight {w} on edge ({u!r}, {v!r})"
            )


def check_snapshot_pair(g1: Graph, g2: Graph) -> None:
    """Verify ``g1`` is a (weight-non-increasing) subgraph of ``g2``.

    Raises
    ------
    GraphValidationError
        If a node or edge of ``g1`` is missing from ``g2``, or an edge got
        *heavier* in ``g2`` (which could make distances increase and break
        the non-negativity of the convergence score).
    """
    # Fast accept: every t1 node and every t1 neighbour list survives at
    # t2 (one dict key-view subset test per node, run in C), and with
    # all weights 1 on both sides no weight can have grown.  Weighted
    # pairs and every breach take the loop below, which names the first
    # breach.
    adj1, adj2 = g1.adjacency_map(), g2.adjacency_map()
    if (
        adj1.keys() <= adj2.keys()
        and all(nbrs.keys() <= adj2[u].keys() for u, nbrs in adj1.items())
        and not (g1.is_weighted() or g2.is_weighted())
    ):
        return
    for u in g1.nodes():
        if u not in g2:
            raise GraphValidationError(
                f"node {u!r} present at t1 but missing at t2 "
                "(the model is insertion-only)"
            )
    for u, v, w1 in g1.weighted_edges():
        if not g2.has_edge(u, v):
            raise GraphValidationError(
                f"edge ({u!r}, {v!r}) present at t1 but missing at t2 "
                "(the model is insertion-only)"
            )
        w2 = g2.weight(u, v)
        if w2 > w1:
            raise GraphValidationError(
                f"edge ({u!r}, {v!r}) weight increased {w1} -> {w2}; "
                "distances must be non-increasing"
            )


@dataclass
class SnapshotRepair:
    """What :func:`repair_snapshot_pair` changed to make a pair valid.

    Empty lists (``clean`` is True) mean the pair already satisfied
    :func:`check_snapshot_pair` and the returned graph is an untouched
    copy of ``g2``.
    """

    restored_nodes: List[Node] = field(default_factory=list)
    restored_edges: List[Tuple[Node, Node, float]] = field(
        default_factory=list
    )
    clamped_weights: List[Tuple[Node, Node, float, float]] = field(
        default_factory=list
    )

    @property
    def clean(self) -> bool:
        """True if no change was needed."""
        return not (self.restored_nodes or self.restored_edges
                    or self.clamped_weights)

    def summary(self) -> str:
        """One-line human description of the applied changes."""
        if self.clean:
            return "snapshot pair already valid; no repair applied"
        parts = []
        if self.restored_nodes:
            parts.append(f"restored {len(self.restored_nodes)} node(s)")
        if self.restored_edges:
            parts.append(f"restored {len(self.restored_edges)} edge(s)")
        if self.clamped_weights:
            parts.append(
                f"clamped {len(self.clamped_weights)} weight(s)"
            )
        return "repaired snapshot pair: " + ", ".join(parts)


def repair_snapshot_pair(g1: Graph, g2: Graph) -> Tuple[Graph, SnapshotRepair]:
    """Project ``g2`` onto the nearest valid superset of ``g1``.

    The returned graph is a copy of ``g2`` in which every node and edge
    of ``g1`` missing from ``g2`` has been restored (edges with their
    ``g1`` weight) and every edge that got *heavier* has been clamped
    back to its ``g1`` weight.  The companion :class:`SnapshotRepair`
    lists each change, so callers can log precisely how far the stream
    strayed from the insertion-only model.  ``g1`` and ``g2`` are never
    mutated, and ``check_snapshot_pair(g1, repaired)`` always passes.
    """
    repaired = g2.copy()
    report = SnapshotRepair()
    for u in g1.nodes():
        if u not in repaired:
            repaired.add_node(u)
            report.restored_nodes.append(u)
    for u, v, w1 in g1.weighted_edges():
        if not repaired.has_edge(u, v):
            repaired.add_edge(u, v, w1)
            report.restored_edges.append((u, v, w1))
            continue
        w2 = repaired.weight(u, v)
        if w2 > w1:
            repaired.add_edge(u, v, w1)  # re-add overwrites the weight
            report.clamped_weights.append((u, v, w2, w1))
    return repaired, report
