"""Unit tests for repro.graph.validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.graph.validation import (
    GraphValidationError,
    check_simple,
    check_snapshot_pair,
    repair_snapshot_pair,
)

from conftest import path_graph


class TestCheckSimple:
    def test_valid_graph_passes(self, path5):
        check_simple(path5)

    def test_smuggled_self_loop_detected(self):
        g = Graph([(0, 1)])
        g._adj[0][0] = 1.0  # bypass add_edge validation
        with pytest.raises(GraphValidationError, match="self loop"):
            check_simple(g)

    def test_smuggled_bad_weight_detected(self):
        g = Graph([(0, 1)])
        g._adj[0][1] = -2.0
        g._adj[1][0] = -2.0
        with pytest.raises(GraphValidationError, match="weight"):
            check_simple(g)


class TestCheckSnapshotPair:
    def test_valid_pair(self, shortcut_pair):
        check_snapshot_pair(*shortcut_pair)

    def test_identical_snapshots_are_valid(self, path5):
        check_snapshot_pair(path5, path5)

    def test_missing_node_detected(self):
        g1 = path_graph(4)
        g2 = path_graph(3)
        with pytest.raises(GraphValidationError, match="node"):
            check_snapshot_pair(g1, g2)

    def test_missing_edge_detected(self):
        g1 = Graph([(0, 1), (1, 2)])
        g2 = Graph([(0, 1), (1, 3)])
        g2.add_node(2)
        with pytest.raises(GraphValidationError, match="edge"):
            check_snapshot_pair(g1, g2)

    def test_weight_increase_detected(self):
        g1 = Graph([(0, 1, 1.0)])
        g2 = Graph([(0, 1, 3.0)])
        with pytest.raises(GraphValidationError, match="increased"):
            check_snapshot_pair(g1, g2)

    def test_weight_decrease_allowed(self):
        g1 = Graph([(0, 1, 3.0)])
        g2 = Graph([(0, 1, 1.0)])
        check_snapshot_pair(g1, g2)

    def test_new_nodes_and_edges_allowed(self, path5):
        g2 = path5.copy()
        g2.add_edge(4, 5)
        g2.add_edge(0, 3)
        check_snapshot_pair(path5, g2)

    def test_node_isolated_in_g2_is_edge_violation(self):
        # The node survives (so the node check passes) but its only
        # edge was deleted — exactly what a deletion event produces.
        g1 = Graph([(0, 1), (1, 2)])
        g2 = Graph([(1, 2)])
        g2.add_node(0)
        with pytest.raises(GraphValidationError, match=r"edge \(0, 1\)"):
            check_snapshot_pair(g1, g2)

    def test_empty_pair_is_valid(self):
        check_snapshot_pair(Graph(), Graph())

    def test_empty_g1_any_g2_is_valid(self, path5):
        check_snapshot_pair(Graph(), path5)

    def test_nonempty_g1_empty_g2_detected(self, path5):
        with pytest.raises(GraphValidationError, match="node"):
            check_snapshot_pair(path5, Graph())


def reference_check(g1, g2):
    """The node-then-edge loop ``check_snapshot_pair`` ran before its
    key-view fast accept: the first breach it meets names the error."""
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


def outcome(check, g1, g2):
    try:
        check(g1, g2)
    except GraphValidationError as exc:
        return str(exc)
    return None


BREACHES = ("none", "node", "edge", "heavier", "light-t1")


@st.composite
def breached_pair(draw):
    """A valid pair over mixed int/str ids, optionally weighted, with at
    most one injected breach of the drawn kind."""
    ids = st.one_of(st.integers(0, 15), st.text("xyz", min_size=1, max_size=2))
    weights = st.sampled_from([1.0, 1.0, 2.0, 0.5])
    g1 = Graph()
    for u in draw(st.lists(ids, max_size=4)):
        g1.add_node(u)
    for u, v, w in draw(st.lists(st.tuples(ids, ids, weights), max_size=25)):
        if u != v:
            g1.add_edge(u, v, w)
    g2 = g1.copy()
    for u, v in draw(st.lists(st.tuples(ids, ids), max_size=10)):
        if u != v and not g2.has_edge(u, v):
            g2.add_edge(u, v)
    kind = draw(st.sampled_from(BREACHES))
    edges = list(g1.edges())
    if kind == "node" and g1.num_nodes:
        g2.remove_node(draw(st.sampled_from(list(g1.nodes()))))
    elif kind == "edge" and edges:
        g2.remove_edge(*draw(st.sampled_from(edges)))
    elif kind == "heavier" and edges:
        u, v = draw(st.sampled_from(edges))
        g2.add_edge(u, v, g1.weight(u, v) + 1.0)
    elif kind == "light-t1" and edges:
        # A t1 weight below 1 against an all-unit t2: the t2 edge is
        # heavier although t2 carries no weight other than 1.
        g2 = Graph()
        for u in g1.nodes():
            g2.add_node(u)
        for u, v in g1.edges():
            g2.add_edge(u, v)
        u, v = draw(st.sampled_from(edges))
        g1.add_edge(u, v, 0.5)
    return kind, g1, g2


class TestFastAcceptMatchesLoop:
    """The key-view fast accept must accept exactly the pairs the loop
    accepts, and a breach must raise the loop's first-breach message."""

    @settings(max_examples=300, deadline=None)
    @given(case=breached_pair())
    def test_same_verdict_and_message(self, case):
        kind, g1, g2 = case
        expected = outcome(reference_check, g1, g2)
        assert outcome(check_snapshot_pair, g1, g2) == expected
        if kind != "none" and g1.num_edges:
            assert expected is not None

    def test_light_t1_weight_against_unit_t2_rejected(self):
        g1 = Graph([(0, 1, 0.5), (1, 2)])
        g2 = Graph([(0, 1), (1, 2), (2, 3)])
        assert not g2.is_weighted()
        with pytest.raises(GraphValidationError, match="increased 0.5 -> 1.0"):
            check_snapshot_pair(g1, g2)

    def test_mixed_ids_first_breach_message(self):
        g1 = Graph([(1, "1"), ("1", 2)])
        g2 = Graph([(1, "1"), (2, 3)])
        with pytest.raises(GraphValidationError) as info:
            check_snapshot_pair(g1, g2)
        assert str(info.value) == outcome(reference_check, g1, g2)
        assert "edge ('1', 2)" in str(info.value)


class TestRepairSnapshotPair:
    def test_valid_pair_untouched(self, path5):
        g2 = path5.copy()
        g2.add_edge(4, 5)
        repaired, report = repair_snapshot_pair(path5, g2)
        assert report.clean
        assert repaired == g2
        assert "no repair" in report.summary()

    def test_restores_deleted_edge_with_g1_weight(self):
        g1 = Graph([(0, 1, 2.5), (1, 2)])
        g2 = Graph([(1, 2)])
        g2.add_node(0)
        repaired, report = repair_snapshot_pair(g1, g2)
        assert repaired.weight(0, 1) == 2.5
        assert report.restored_edges == [(0, 1, 2.5)]
        check_snapshot_pair(g1, repaired)

    def test_restores_deleted_node(self):
        g1 = Graph([(0, 1)])
        g1.add_node(9)
        g2 = Graph([(0, 1)])
        repaired, report = repair_snapshot_pair(g1, g2)
        assert 9 in repaired
        assert report.restored_nodes == [9]
        check_snapshot_pair(g1, repaired)

    def test_clamps_increased_weight(self):
        g1 = Graph([(0, 1, 1.0)])
        g2 = Graph([(0, 1, 4.0)])
        repaired, report = repair_snapshot_pair(g1, g2)
        assert repaired.weight(0, 1) == 1.0
        assert report.clamped_weights == [(0, 1, 4.0, 1.0)]
        check_snapshot_pair(g1, repaired)

    def test_inputs_never_mutated(self):
        g1 = Graph([(0, 1, 1.0), (1, 2)])
        g2 = Graph([(0, 1, 4.0)])
        before1, before2 = g1.copy(), g2.copy()
        repair_snapshot_pair(g1, g2)
        assert g1 == before1
        assert g2 == before2

    def test_repair_then_check_always_passes(self):
        # Compound dirt: missing node, missing edge, heavier edge.
        g1 = Graph([(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0)])
        g2 = Graph([(0, 1, 5.0), (1, 2, 1.0)])
        repaired, report = repair_snapshot_pair(g1, g2)
        assert not report.clean
        assert "restored" in report.summary()
        check_snapshot_pair(g1, repaired)
