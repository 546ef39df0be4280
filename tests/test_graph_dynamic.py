"""Unit tests for repro.graph.dynamic (EdgeEvent / TemporalGraph)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dynamic import EdgeEvent, TemporalGraph
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair


class TestEdgeEvent:
    def test_fields(self):
        ev = EdgeEvent(time=3.0, u="a", v="b", weight=2.0)
        assert ev.endpoints() == ("a", "b")
        assert ev.weight == 2.0

    def test_ordering_by_time(self):
        assert EdgeEvent(1, 5, 6) < EdgeEvent(2, 1, 2)

    def test_frozen(self):
        ev = EdgeEvent(0, 1, 2)
        with pytest.raises(AttributeError):
            ev.time = 9


class TestEdgeEventRecord:
    """What callers of the record rely on: pickling, hashing and equality
    among events, defaults, and a stable sort by time."""

    def test_pickle_round_trip(self):
        for ev in (EdgeEvent(1.5, "a", 2, 0.5), EdgeEvent(0, 1, 2)):
            back = pickle.loads(pickle.dumps(ev))
            assert back == ev
            assert type(back) is EdgeEvent
            assert back.is_deletion == ev.is_deletion

    def test_equal_events_hash_alike(self):
        a, b = EdgeEvent(1.0, "a", "b", 2.0), EdgeEvent(1, "a", "b", 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, EdgeEvent(1.0, "b", "a", 2.0)}) == 2
        assert EdgeEvent(1.0, "a", "b") != EdgeEvent(1.0, "a", "b", 2.0)

    def test_defaults(self):
        ev = EdgeEvent(3.0)
        assert (ev.u, ev.v, ev.weight) == (None, None, 1.0)

    def test_stable_sort_of_a_mixed_time_stream(self):
        events = [EdgeEvent(2, "x", 1), EdgeEvent(1, 5, 6),
                  EdgeEvent(2, 0, "y"), EdgeEvent(1, "a", "b")]
        by_time = sorted(events, key=lambda ev: ev.time)
        assert by_time == [events[1], events[3], events[0], events[2]]
        assert list(TemporalGraph(events).events()) == by_time

    def test_an_event_is_the_tuple_of_its_fields(self):
        ev = EdgeEvent(1.0, "a", "b", 2.0)
        assert ev == (1.0, "a", "b", 2.0)
        time, u, v, weight = ev
        assert (time, u, v, weight) == (1.0, "a", "b", 2.0)


class TestFromColumns:
    def test_equals_add_edge_row_by_row(self):
        rows = [(2.0, 1, "a", 1.0), (1.0, "a", 3, 0.0), (1.0, 4, 5, 2.0)]
        one_by_one = TemporalGraph()
        for row in rows:
            one_by_one.add_edge(*row)
        bulk = TemporalGraph.from_columns(*map(list, zip(*rows)))
        assert bulk.events() == one_by_one.events()
        assert bulk.snapshot() == one_by_one.snapshot()

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            TemporalGraph.from_columns([0.0, 1.0], [1, 2], [2, 3], [1.0])

    def test_self_loop_rejected_as_add_event_does(self):
        with pytest.raises(ValueError, match=r"self loop at time 1\.0: 'b'"):
            TemporalGraph.from_columns(
                [0.0, 1.0], [1, "b"], [2, "b"], [1.0, 1.0]
            )


class TestConstruction:
    def test_from_tuples(self):
        tg = TemporalGraph([(0, 1, 2), (1, 2, 3)])
        assert tg.num_events == 2

    def test_from_weighted_tuples(self):
        tg = TemporalGraph([(0, 1, 2, 5.0)])
        assert tg.events()[0].weight == 5.0

    def test_from_events(self):
        tg = TemporalGraph([EdgeEvent(0, "x", "y")])
        assert tg.num_events == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            TemporalGraph([(0, 1, 1)])

    def test_unsorted_events_are_sorted(self):
        tg = TemporalGraph([(5, 1, 2), (1, 3, 4), (3, 5, 6)])
        times = [ev.time for ev in tg.events()]
        assert times == [1, 3, 5]

    def test_stable_sort_preserves_tie_order(self):
        tg = TemporalGraph([(1, 1, 2), (0, 9, 8), (1, 3, 4)])
        events = tg.events()
        assert events[1].endpoints() == (1, 2)
        assert events[2].endpoints() == (3, 4)

    def test_len(self):
        assert len(TemporalGraph([(0, 1, 2)])) == 1


class TestSnapshots:
    @pytest.fixture
    def stream(self) -> TemporalGraph:
        return TemporalGraph([(i, i, i + 1) for i in range(10)])

    def test_full_snapshot(self, stream):
        g = stream.snapshot()
        assert g.num_edges == 10
        assert g.num_nodes == 11

    def test_snapshot_at_time(self, stream):
        g = stream.snapshot_at_time(4)
        assert g.num_edges == 5  # times 0..4 inclusive

    def test_snapshot_at_time_before_start(self, stream):
        assert stream.snapshot_at_time(-1).num_nodes == 0

    def test_snapshot_at_fraction(self, stream):
        assert stream.snapshot_at_fraction(0.5).num_edges == 5
        assert stream.snapshot_at_fraction(0.0).num_edges == 0
        assert stream.snapshot_at_fraction(1.0).num_edges == 10

    def test_snapshot_fraction_out_of_range(self, stream):
        with pytest.raises(ValueError):
            stream.snapshot_at_fraction(1.5)
        with pytest.raises(ValueError):
            stream.snapshot_at_fraction(-0.1)

    def test_snapshot_pair_subgraph_relation(self, stream):
        g1, g2 = stream.snapshot_pair(0.4, 0.8)
        for u, v in g1.edges():
            assert g2.has_edge(u, v)

    def test_snapshot_pair_bad_order(self, stream):
        with pytest.raises(ValueError, match="f1 <= f2"):
            stream.snapshot_pair(0.9, 0.5)

    def test_repeated_edge_insertions_collapse(self):
        tg = TemporalGraph([(0, 1, 2), (1, 1, 2), (2, 2, 3)])
        g = tg.snapshot()
        assert g.num_edges == 2

    def test_repeated_edge_keeps_first_weight(self):
        tg = TemporalGraph([(0, 1, 2, 3.0), (1, 1, 2, 9.0)])
        # First materialised weight wins: re-insertion must never make an
        # existing edge heavier (distances must not increase).
        assert tg.snapshot().weight(1, 2) == 3.0

    def test_events_between(self, stream):
        mid = stream.events_between(0.5, 0.8)
        assert [ev.time for ev in mid] == [5, 6, 7]

    def test_events_between_full_range(self, stream):
        assert len(stream.events_between(0.0, 1.0)) == 10

    def test_events_between_bad_range(self, stream):
        with pytest.raises(ValueError):
            stream.events_between(0.8, 0.5)

    def test_time_span(self, stream):
        assert stream.time_span() == (0, 9)

    def test_time_span_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TemporalGraph().time_span()

    def test_incremental_add(self):
        tg = TemporalGraph()
        tg.add_edge(0, "a", "b")
        tg.add_edge(1, "b", "c", weight=2.0)
        g = tg.snapshot()
        assert g.num_edges == 2
        assert g.weight("b", "c") == 2.0

    def test_iteration(self, stream):
        assert sum(1 for _ in stream) == 10


class TestDeletionEvents:
    """Non-positive weight marks an edge deletion (dirty real streams)."""

    def test_is_deletion_flag(self):
        from repro.graph.dynamic import EdgeEvent

        assert EdgeEvent(0, 1, 2, 0.0).is_deletion
        assert EdgeEvent(0, 1, 2, -1.0).is_deletion
        assert not EdgeEvent(0, 1, 2, 1.0).is_deletion

    def test_deletion_removes_edge_from_snapshot(self):
        tg = TemporalGraph([(0, 1, 2), (1, 2, 3), (2, 1, 2, 0.0)])
        g = tg.snapshot()
        assert not g.has_edge(1, 2)
        assert g.has_edge(2, 3)
        # Endpoints survive as (possibly isolated) nodes.
        assert 1 in g

    def test_deletion_of_absent_edge_is_noop(self):
        tg = TemporalGraph([(0, 1, 2), (1, 8, 9, -2.0)])
        g = tg.snapshot()
        assert g.num_edges == 1
        assert 8 not in g

    def test_deletion_only_affects_later_snapshots(self):
        tg = TemporalGraph([(0, 1, 2), (1, 2, 3), (2, 1, 2, 0.0)])
        early = tg.snapshot_at_time(1)
        late = tg.snapshot_at_time(2)
        assert early.has_edge(1, 2)
        assert not late.has_edge(1, 2)

    def test_reinsertion_after_deletion(self):
        tg = TemporalGraph([(0, 1, 2, 3.0), (1, 1, 2, 0.0), (2, 1, 2, 5.0)])
        g = tg.snapshot()
        assert g.weight(1, 2) == 5.0


def layout(g):
    """Everything a snapshot's order shows: nodes, and each node's
    neighbours with their weights, in iteration order."""
    return [(u, list(g.adjacency(u).items())) for u in g.nodes()]


#: Streams over a few mixed int/str nodes, so edges repeat: deletions
#: (weight <= 0), re-insertions after them, and non-unit weights.
streams = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 6), st.sampled_from(["a", "b"])),
        st.one_of(st.integers(0, 6), st.sampled_from(["a", "b"])),
        st.sampled_from([1.0, 1.0, 1.0, 2.5, 0.0, -1.0]),
    ).filter(lambda ev: ev[0] != ev[1]),
    max_size=40,
)


class TestSnapshotPairExtendsG1:
    @settings(max_examples=150, deadline=None)
    @given(
        events=streams,
        fractions=st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted),
    )
    def test_g2_is_the_snapshot_at_f2(self, events, fractions):
        """``snapshot_pair`` builds ``G_t2`` on a copy of ``G_t1``; it is
        the graph ``snapshot_at_fraction(f2)`` materialises from empty."""
        f1, f2 = fractions
        tg = TemporalGraph(
            (t, u, v, w) for t, (u, v, w) in enumerate(events)
        )
        g1, g2 = tg.snapshot_pair(f1, f2)
        for got, fraction in ((g1, f1), (g2, f2)):
            want = tg.snapshot_at_fraction(fraction)
            assert got == want
            assert layout(got) == layout(want)
            assert got.is_weighted() == want.is_weighted()
        g2.add_edge("new", "node")
        assert "new" not in g1

    def test_f2_out_of_range_is_refused(self):
        tg = TemporalGraph([(0, 1, 2)])
        with pytest.raises(ValueError, match="fraction"):
            tg.snapshot_pair(0.5, 1.5)


class TestSnapshotPairMapping:
    """``SnapshotPair.mapping`` takes each t1 index to the same node's t2
    index, whichever order ``G_t2`` lists its nodes in."""

    @staticmethod
    def looked_up(pair):
        return [pair.csr2.index[u] for u in pair.csr1.nodes]

    @settings(max_examples=100, deadline=None)
    @given(events=streams, f1=st.floats(0, 1))
    def test_grown_and_reordered_pairs(self, events, f1):
        tg = TemporalGraph(
            (t, u, v, min(w, 1.0)) for t, (u, v, w) in enumerate(events)
        )
        g1, g2 = tg.snapshot_pair(f1)
        grown = SnapshotPair.from_graphs(g1, g2)
        assert grown.mapping.dtype == np.int64
        assert grown.mapping.tolist() == self.looked_up(grown)
        assert grown.mapping.tolist() == list(range(len(grown.nodes)))
        reordered = Graph()
        for u in reversed(list(g2.nodes())):
            reordered.add_node(u)
        reordered.add_edges_from(reversed(list(g2.edges())))
        pair = SnapshotPair.from_graphs(g1, reordered)
        assert pair.mapping.dtype == np.int64
        assert pair.mapping.tolist() == self.looked_up(pair)

    def test_another_node_order_is_looked_up(self):
        g1 = Graph([(0, 1), (1, 2), ("a", 2)])
        g2 = Graph([(2, "a"), ("b", 1), (1, 0), (2, 1)])
        pair = SnapshotPair.from_graphs(g1, g2)
        assert pair.mapping.tolist() == self.looked_up(pair) == [4, 3, 0, 1]
