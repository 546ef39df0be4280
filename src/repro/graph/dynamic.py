"""Temporal graphs: timestamped edge streams and snapshot materialisation.

The paper models a dynamic network as a sequence of slices of node and edge
*insertions*; the graph at time ``t`` aggregates every slice up to ``t``.
:class:`TemporalGraph` captures exactly that: an append-only, timestamp-
ordered stream of :class:`EdgeEvent` records, from which static
:class:`~repro.graph.graph.Graph` snapshots are materialised either at a
timestamp (``snapshot_at_time``) or at a fraction of the stream
(``snapshot_at_fraction`` — the paper's "80% of the edges" split).

Because the stream is insertion-only, any two snapshots ``G_t1``/``G_t2``
with ``t1 <= t2`` automatically satisfy the subgraph relation the problem
definition requires, and distances can only decrease from ``G_t1`` to
``G_t2``.

Real-world temporal dumps are *not* always insertion-only: unfollows and
withdrawals show up as zero- or negative-weight rows.  The stream layer
represents such a row as an :class:`EdgeEvent` with ``weight <= 0`` (see
:attr:`EdgeEvent.is_deletion`) and materialisation applies it — the edge,
if present, is removed from the snapshot.  A stream containing deletions
therefore materialises without crashing, but its snapshot pairs can
violate the subgraph relation; that is exactly what
:func:`repro.graph.validation.check_snapshot_pair` exists to catch, and
what the ingestion layer (:mod:`repro.ingest`) repairs or quarantines at
the boundary.
"""

from __future__ import annotations

import bisect
from operator import eq, gt
from typing import (
    Any,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.graph import Graph

Node = Hashable


class EdgeEvent(NamedTuple):
    """A single timestamped undirected edge insertion.

    A named tuple ``(time, u, v, weight)``: ordering is by ``time`` first
    (then endpoints, for determinism), so a sorted list of events is a
    valid stream, and an event equals the plain tuple of its fields.
    """

    time: float
    u: Node = None
    v: Node = None
    weight: float = 1.0

    def endpoints(self) -> Tuple[Node, Node]:
        """The pair ``(u, v)`` of this event."""
        return (self.u, self.v)

    @property
    def is_deletion(self) -> bool:
        """True if this event *removes* its edge (``weight <= 0``).

        The paper's model is insertion-only; deletion events only appear
        when a dirty real-world stream is loaded without sanitization.
        """
        return self.weight <= 0


class TemporalGraph:
    """An insertion-only stream of timestamped edges.

    Parameters
    ----------
    events:
        Optional iterable of :class:`EdgeEvent` (or ``(time, u, v)`` /
        ``(time, u, v, weight)`` tuples).  Events may arrive unsorted; the
        stream is kept sorted by time internally.

    Examples
    --------
    >>> tg = TemporalGraph([(0, "a", "b"), (1, "b", "c"), (2, "a", "c")])
    >>> g1 = tg.snapshot_at_fraction(2 / 3)
    >>> g1.num_edges
    2
    >>> tg.snapshot().num_edges
    3
    """

    def __init__(self, events: Optional[Iterable] = None) -> None:
        self._events: List[EdgeEvent] = []
        self._sorted = True
        if events is not None:
            for ev in events:
                self.add_event(ev)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_event(self, event: "EdgeEvent | Sequence") -> None:
        """Append one event; tuples are coerced to :class:`EdgeEvent`."""
        if not isinstance(event, EdgeEvent):
            if len(event) == 3:
                event = EdgeEvent(time=event[0], u=event[1], v=event[2])
            else:
                event = EdgeEvent(
                    time=event[0], u=event[1], v=event[2], weight=event[3]
                )
        if event.u == event.v:
            raise ValueError(f"self loop at time {event.time}: {event.u!r}")
        if self._events and event.time < self._events[-1].time:
            self._sorted = False
        self._events.append(event)

    def add_edge(self, time: float, u: Node, v: Node, weight: float = 1.0) -> None:
        """Convenience wrapper around :meth:`add_event`."""
        self.add_event(EdgeEvent(time=time, u=u, v=v, weight=weight))

    @classmethod
    def from_columns(
        cls,
        times: Sequence[float],
        us: Sequence[Node],
        vs: Sequence[Node],
        weights: Sequence[float],
    ) -> "TemporalGraph":
        """The stream that :meth:`add_edge` over the rows of the columns
        builds, in bulk: same events, same order, same self-loop error."""
        if not len(times) == len(us) == len(vs) == len(weights):
            raise ValueError("columns differ in length")
        if any(map(eq, us, vs)):
            time, u = next((t, u) for t, u, v in zip(times, us, vs) if u == v)
            raise ValueError(f"self loop at time {time}: {u!r}")
        temporal = cls()
        temporal._events = list(map(EdgeEvent, times, us, vs, weights))
        # add_event marks a stream unsorted when a time steps back.
        temporal._sorted = not any(map(gt, times, times[1:]))
        return temporal

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            # Stable sort on time keeps same-timestamp insertion order,
            # which matters for fraction-based snapshots.
            self._events.sort(key=lambda ev: ev.time)
            self._sorted = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Number of edge-insertion events in the stream."""
        return len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> Sequence[EdgeEvent]:
        """The full stream, sorted by time."""
        self._ensure_sorted()
        return tuple(self._events)

    def __iter__(self) -> Iterator[EdgeEvent]:
        self._ensure_sorted()
        return iter(self._events)

    def time_span(self) -> Tuple[float, float]:
        """``(first, last)`` event timestamps; raises on an empty stream."""
        if not self._events:
            raise ValueError("empty temporal graph has no time span")
        self._ensure_sorted()
        return (self._events[0].time, self._events[-1].time)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Graph:
        """The final graph: every event applied."""
        return self._materialise(len(self._events))

    def snapshot_at_time(self, t: float) -> Graph:
        """The graph aggregating all events with ``time <= t``."""
        self._ensure_sorted()
        times = [ev.time for ev in self._events]
        cut = bisect.bisect_right(times, t)
        return self._materialise(cut)

    def snapshot_at_fraction(self, fraction: float) -> Graph:
        """The graph of the first ``round(fraction * num_events)`` events.

        This is the paper's split: ``G_t1`` holds 80 percent of the edges
        and ``G_t2`` the entire graph.  ``fraction`` must lie in [0, 1].
        """
        return self._materialise(self._cut(fraction))

    def snapshot_pair(
        self, f1: float, f2: float = 1.0
    ) -> Tuple[Graph, Graph]:
        """Materialise ``(G_t1, G_t2)`` at stream fractions ``f1 <= f2``.

        ``G_t2`` extends a copy of ``G_t1`` by the events between the two
        cuts, which :func:`apply_events` makes the graph
        ``snapshot_at_fraction(f2)`` returns, so the first ``f1`` of the
        stream is applied once.
        """
        if f1 > f2:
            raise ValueError(f"need f1 <= f2, got {f1} > {f2}")
        cut1, cut2 = self._cut(f1), self._cut(f2)
        g1 = self._materialise(cut1)
        return g1, self._materialise(cut2, g1.copy(), cut1)

    def events_between(self, f1: float, f2: float) -> List[EdgeEvent]:
        """Events strictly after fraction ``f1`` up to fraction ``f2``.

        These are the "new edges" of the second snapshot — the raw input
        of the Incidence family of algorithms.
        """
        if not 0.0 <= f1 <= f2 <= 1.0:
            raise ValueError(f"need 0 <= f1 <= f2 <= 1, got ({f1}, {f2})")
        self._ensure_sorted()
        lo = round(f1 * len(self._events))
        hi = round(f2 * len(self._events))
        return list(self._events[lo:hi])

    def _cut(self, fraction: float) -> int:
        """The number of events in the first ``fraction`` of the stream."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return round(fraction * len(self._events))

    def _materialise(
        self, cut: int, graph: Optional[Graph] = None, start: int = 0
    ) -> Graph:
        """``graph`` (empty by default), extended by events
        ``start .. cut − 1``."""
        self._ensure_sorted()
        return apply_events(
            Graph() if graph is None else graph, self._events[start:cut]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TemporalGraph(events={len(self._events)})"


def apply_events(graph: Graph, events: Iterable[Sequence[Any]]) -> Graph:
    """Apply ``(time, u, v, weight)`` rows to ``graph`` in order; returns it.

    Rows are :class:`EdgeEvent` records or the runtime's lists of the
    same four fields.  The stream's one event rule, shared by every
    snapshot builder: materialising a prefix into an empty graph, or
    extending a copy of an earlier snapshot by the events after it,
    gives the same graph, down to node and neighbour order.
    """
    adj = graph.adjacency_map()
    add_edge = graph.add_edge
    for _time, u, v, weight in events:
        nbrs = adj.get(u)
        if weight <= 0:
            # Deletion events remove the edge if present (endpoints
            # stay, possibly isolated) and never add anything.
            if nbrs is not None and v in nbrs:
                graph.remove_edge(u, v)
        elif nbrs is None or v not in nbrs:
            # Re-insertions of an existing edge are tolerated (real
            # edge streams contain repeated interactions); the simple
            # graph keeps one edge and its first weight: a re-insertion
            # never makes an existing edge heavier, so distances never
            # grow.
            add_edge(u, v, weight)
    return graph
