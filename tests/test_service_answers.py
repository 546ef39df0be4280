"""Pure answer computation: topk merge, per-node partners, budgets."""

import pytest

from repro.core.pairs import pair_delta
from repro.datasets.catalog import internet_weighted
from repro.graph.dynamic import TemporalGraph
from repro.graph.pair import SnapshotPair
from repro.graph.traversal import single_source_distances
from repro.graph.validation import repair_snapshot_pair
from repro.runtime import RuntimeConfig, StreamRuntime
from repro.service.answers import (
    compute_answer,
    node_answer,
    topk_answer,
    validate_query_args,
)
from repro.service.protocol import E_BAD_REQUEST, ProtocolError

from conftest import random_temporal_graph


@pytest.fixture
def runtime(tmp_path):
    stream = random_temporal_graph(30, 120, seed=11)
    rt = StreamRuntime(
        stream, tmp_path / "wal",
        RuntimeConfig(k=5, batch_size=6, checkpoint_every=2),
    )
    rt.run()
    return rt


class TestValidation:
    @pytest.mark.parametrize(
        "verb,args",
        [
            ("topk", {"k": 0}),
            ("topk", {"k": True}),
            ("topk", {"k": "five"}),
            ("topk", {"u": 1}),
            ("node", {}),
            ("node", {"u": 1.5}),
            ("node", {"u": True}),
            ("node", {"u": 1, "extra": 2}),
        ],
    )
    def test_bad_args_rejected(self, verb, args):
        with pytest.raises(ProtocolError) as err:
            validate_query_args(verb, args)
        assert err.value.code == E_BAD_REQUEST

    def test_good_args_pass(self):
        validate_query_args("topk", {})
        validate_query_args("topk", {"k": 3})
        validate_query_args("node", {"u": 1})
        validate_query_args("node", {"u": "alice", "k": 2})


class TestTopK:
    def test_pairs_ranked_and_truncated(self, runtime):
        answer = topk_answer(runtime, k=3)
        assert answer["k"] == 3
        assert answer["consumed"] == runtime.consumed
        assert answer["windows"] == len(runtime.windows)
        assert len(answer["pairs"]) <= 3
        deltas = [row[4] for row in answer["pairs"]]
        assert deltas == sorted(deltas, reverse=True)

    def test_default_k_is_the_runtime_k(self, runtime):
        assert topk_answer(runtime)["k"] == runtime.config.k

    def test_keeps_best_delta_per_pair(self, runtime):
        answer = topk_answer(runtime, k=100)
        best = {}
        for window in runtime.windows:
            for p in window.pairs:
                key = p.pair
                if key not in best or p.delta > best[key]:
                    best[key] = p.delta
        for u, v, d1, d2, delta in answer["pairs"]:
            assert best[(u, v)] == delta
        # No pair appears twice.
        keys = [(row[0], row[1]) for row in answer["pairs"]]
        assert len(keys) == len(set(keys))

    def test_pure_function_of_state(self, runtime):
        assert topk_answer(runtime, k=5) == topk_answer(runtime, k=5)


class TestNode:
    def test_partners_are_positive_delta_and_ranked(self, runtime):
        top = topk_answer(runtime, k=1)["pairs"]
        assert top, "fixture stream should produce converging pairs"
        u = top[0][0]
        answer = node_answer(runtime, u, k=4)
        assert answer["present"] is True
        assert answer["u"] == u
        assert answer["sssp"] == 2  # one t1 BFS + one repair, charged
        assert answer["window"]["index"] == runtime.windows[-1].index
        assert 0 < len(answer["partners"]) <= 4
        deltas = [row[3] for row in answer["partners"]]
        assert deltas == sorted(deltas, reverse=True)
        assert all(d > 0 for d in deltas)

    def test_partner_deltas_match_the_snapshot_pair(self, runtime):
        u = topk_answer(runtime, k=1)["pairs"][0][0]
        answer = node_answer(runtime, u, k=3)
        g1, g2 = runtime.window_snapshots(runtime.windows[-1].index)
        for v, d1, d2, delta in answer["partners"]:
            assert delta == d1 - d2
            assert pair_delta(g1, g2, u, v) == delta

    def test_weighted_partners_match_single_source_distances(
        self, tmp_path
    ):
        runtime = StreamRuntime(
            internet_weighted(scale=0.05, seed=3), tmp_path / "wal",
            RuntimeConfig(k=5, batch_size=8, checkpoint_every=2),
        )
        runtime.run()
        g1, g2 = runtime.window_snapshots(runtime.windows[-1].index)
        assert g2.is_weighted()
        for u in list(g1.nodes())[:12]:
            dist1 = single_source_distances(g1, u)
            dist2 = single_source_distances(g2, u)
            expected = sorted(
                ([v, d1, dist2[v], d1 - dist2[v]]
                 for v, d1 in dist1.items()
                 if v != u and d1 - dist2[v] > 0),
                key=lambda row: (-row[3], repr(row[0])),
            )
            answer = node_answer(runtime, u, k=len(g1) + 1)
            assert answer["sssp"] == 2
            assert answer["partners"] == expected

    def test_absent_node(self, runtime):
        answer = node_answer(runtime, "no-such-node", k=3)
        assert answer["present"] is False
        assert answer["partners"] == []
        assert answer["window"] is not None  # windows exist; node doesn't

    def test_no_windows_yet(self, tmp_path):
        stream = random_temporal_graph(10, 30, seed=3)
        rt = StreamRuntime(
            stream, tmp_path / "wal",
            RuntimeConfig(k=5, batch_size=6, checkpoint_every=2),
        )
        answer = node_answer(rt, 0, k=3)
        assert answer == {
            "u": 0, "k": 3, "present": False, "window": None, "partners": [],
        }


class TestSharedPair:
    """Counts, not time: every ``node`` read of one window shares one
    :class:`SnapshotPair`."""

    def test_reads_at_one_version_build_one_pair(self, tmp_path, monkeypatch):
        runtime = StreamRuntime(
            random_temporal_graph(30, 120, seed=11), tmp_path / "wal",
            RuntimeConfig(k=5, batch_size=6, checkpoint_every=2),
        )
        runtime.run(max_batches=4)
        built = []
        for constructor in ("from_graphs", "after"):
            build = getattr(SnapshotPair, constructor).__func__

            def counting(cls, *args, _build=build):
                built.append(runtime.state_version)
                return _build(cls, *args)

            monkeypatch.setattr(
                SnapshotPair, constructor, classmethod(counting)
            )
        g1, _ = runtime.window_snapshots(runtime.windows[-1].index)
        nodes = list(g1.nodes())[:12]
        first = [node_answer(runtime, u) for u in nodes]
        assert [node_answer(runtime, u) for u in nodes] == first
        # The window's own top-k built the pair every read shares.
        assert built == []
        runtime.run(max_batches=2)  # closes the third window
        node_answer(runtime, nodes[0])
        node_answer(runtime, nodes[1])
        assert runtime.state_version == 3
        assert built == [2]  # once, while the third window closed

    def test_partners_on_a_repaired_window_match_dijkstra(self, tmp_path):
        """A stream that deletes edges: the shared pair holds the
        repaired G_t2, and every node's partners match SSSP on it."""
        rows = [
            (e.time, e.u, e.v, e.weight)
            for e in random_temporal_graph(20, 60, seed=4).events()
        ]
        rows += [(60 + i, u, v, -1.0) for i, (_, u, v, _) in enumerate(rows[:4])]
        runtime = StreamRuntime(
            TemporalGraph(rows), tmp_path / "wal",
            RuntimeConfig(k=5, batch_size=4, checkpoint_every=4),
        )
        runtime.run()
        g1, g2 = runtime.window_snapshots(runtime.windows[-1].index)
        repaired, repair = repair_snapshot_pair(g1, g2)
        assert not repair.clean
        for u in g1.nodes():
            dist1 = single_source_distances(g1, u)
            dist2 = single_source_distances(repaired, u)
            expected = sorted(
                ([v, float(d1), float(dist2[v]), float(d1 - dist2[v])]
                 for v, d1 in dist1.items()
                 if v != u and d1 - dist2[v] > 0),
                key=lambda row: (-row[3], repr(row[0])),
            )
            answer = node_answer(runtime, u, k=len(g1))
            assert answer["partners"] == expected


class TestComputeAnswer:
    def test_dispatch(self, runtime):
        assert compute_answer(runtime, "topk", {"k": 2}) == topk_answer(
            runtime, k=2
        )
        u = topk_answer(runtime, k=1)["pairs"][0][0]
        assert compute_answer(runtime, "node", {"u": u}) == node_answer(
            runtime, u
        )

    def test_validates_before_computing(self, runtime):
        with pytest.raises(ProtocolError):
            compute_answer(runtime, "topk", {"k": -1})
