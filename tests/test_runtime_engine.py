"""StreamRuntime: windows, recovery, degradation, shedding."""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import top_k_converging_pairs
from repro.datasets.catalog import internet_weighted
from repro.graph.dynamic import TemporalGraph
from repro.resilience import capture_events
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.runtime import (
    ResourceGuard,
    RuntimeConfig,
    RuntimeRecoveryError,
    StreamRuntime,
    SupervisorGivingUp,
)
from repro.runtime.engine import _materialise
from repro.service.answers import node_answer

from conftest import random_temporal_graph


@pytest.fixture
def stream():
    return random_temporal_graph(30, 120, seed=11)


@pytest.fixture
def config():
    return RuntimeConfig(k=5, batch_size=6, checkpoint_every=2)


def dirty_stream():
    """An insertion stream with deletions sprinkled in: most windows
    past the warm-up delete an edge inserted *before* the window
    started, so G_t1 is no longer a subgraph of G_t2 and the direct
    attempt's precondition fails."""
    tg = random_temporal_graph(25, 90, seed=4)
    events = list(tg.events())
    out = TemporalGraph()
    deleted = 0
    for i, ev in enumerate(events):
        out.add_edge(ev.time, ev.u, ev.v, ev.weight)
        if i >= 30 and i % 5 == 0:
            # Remove one of the earliest edges — long since part of
            # every window-start snapshot, each targeted exactly once.
            target = events[deleted]
            out.add_edge(ev.time, target.u, target.v, -1.0)
            deleted += 1
    return out


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"k": 0}, {"batch_size": 0}, {"checkpoint_every": 0},
         {"selector": "SumDiff", "m": 0}],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_window_events(self):
        assert RuntimeConfig(batch_size=6, checkpoint_every=2).window_events == 12


class TestAdvancement:
    def test_full_run_closes_expected_windows(self, tmp_path, stream, config):
        runtime = StreamRuntime(stream, tmp_path / "wal", config)
        report = runtime.run()
        assert report.status == "complete"
        assert report.consumed == len(stream)
        # 120 events / 12 per window -> 10 full windows.
        assert [w.end - w.start for w in report.windows] == [12] * 10
        assert all(w.engine == "csr" for w in report.windows)
        for window in report.windows:
            g1, g2 = runtime.window_snapshots(window.index)
            assert list(window.pairs) == top_k_converging_pairs(
                g1, g2, config.k, engine="dict"
            )

    def test_partial_final_window(self, tmp_path, config):
        stream = random_temporal_graph(20, 30, seed=5)  # 30 = 2*12 + 6
        runtime = StreamRuntime(stream, tmp_path / "wal", config)
        report = runtime.run()
        assert [w.end - w.start for w in report.windows] == [12, 12, 6]

    def test_rerun_on_completed_directory_is_identical(
        self, tmp_path, stream, config
    ):
        first = StreamRuntime(stream, tmp_path / "wal", config).run()
        second = StreamRuntime(stream, tmp_path / "wal", config).run()
        assert second.render() == first.render()

    def test_resume_after_pause_matches_uninterrupted(
        self, tmp_path, stream, config
    ):
        uninterrupted = StreamRuntime(
            stream, tmp_path / "a", config
        ).run()
        # Stop-and-go in ragged increments, including mid-window stops.
        resumable = None
        for budget in (1, 3, 5, 2, 100):
            resumable = StreamRuntime(stream, tmp_path / "b", config).run(
                max_batches=budget
            )
            if resumable.status == "complete":
                break
        assert resumable is not None
        assert resumable.status == "complete"
        assert resumable.render() == uninterrupted.render()

    def test_crash_mid_append_recovers_identically(
        self, tmp_path, stream, config
    ):
        uninterrupted = StreamRuntime(stream, tmp_path / "a", config).run()

        class Crash(BaseException):
            """Bypasses every except Exception on the way out."""

        def chaos(point):
            if point == "wal.append.mid":
                raise Crash()

        crashed = StreamRuntime(
            stream, tmp_path / "b", config, chaos=chaos
        )
        with pytest.raises(Crash):
            crashed.run()
        recovered = StreamRuntime(stream, tmp_path / "b", config).run()
        assert recovered.render() == uninterrupted.render()

    def test_crash_mid_checkpoint_recovers_identically(
        self, tmp_path, stream, config
    ):
        uninterrupted = StreamRuntime(stream, tmp_path / "a", config).run()

        class Crash(BaseException):
            pass

        fired = {"count": 0}

        def chaos(point):
            if point == "checkpoint.mid":
                fired["count"] += 1
                if fired["count"] == 3:
                    raise Crash()

        crashed = StreamRuntime(
            stream, tmp_path / "b", config, chaos=chaos
        )
        with pytest.raises(Crash):
            crashed.run()
        survivor = StreamRuntime(stream, tmp_path / "b", config)
        assert survivor.recovered_from_seq is not None
        recovered = survivor.run()
        assert recovered.render() == uninterrupted.render()

    def test_empty_stream_is_a_clean_noop(self, tmp_path, config):
        report = StreamRuntime(
            TemporalGraph(), tmp_path / "wal", config
        ).run()
        assert report.status == "complete"
        assert report.windows == []
        assert report.consumed == 0


class TestDegradation:
    def test_dirty_windows_fall_back_and_trip_breaker(self, tmp_path):
        config = RuntimeConfig(k=5, batch_size=6, checkpoint_every=1)
        runtime = StreamRuntime(dirty_stream(), tmp_path / "wal", config)
        report = runtime.run()
        assert report.status == "complete"
        engines = {w.engine for w in report.windows}
        assert "csr-fallback" in engines  # repairs failed somewhere
        # Once the breaker opened, fallback happens without an attempt.
        assert runtime.breaker.transitions  # it tripped at least once

    def test_dirty_stream_recovery_is_identical(self, tmp_path):
        """Breaker state is checkpointed, so recovery replays the same
        engine decisions even on a stream that keeps tripping it."""
        config = RuntimeConfig(k=5, batch_size=6, checkpoint_every=1)
        stream = dirty_stream()
        uninterrupted = StreamRuntime(stream, tmp_path / "a", config).run()

        resumed = None
        for budget in (2, 3, 2, 100):
            resumed = StreamRuntime(stream, tmp_path / "b", config).run(
                max_batches=budget
            )
            if resumed.status == "complete":
                break
        assert resumed is not None
        assert resumed.render() == uninterrupted.render()

    def test_injected_repair_faults_drive_breaker_open(self, tmp_path, stream):
        config = RuntimeConfig(k=5, batch_size=6, checkpoint_every=1)
        injector = FaultInjector(FaultPlan(fail_nth=tuple(range(1, 20))))
        runtime = StreamRuntime(
            stream, tmp_path / "wal", config, repair_injector=injector
        )
        report = runtime.run()
        assert report.status == "complete"
        assert runtime.breaker.transitions[0][0] == "open"
        # Denied windows never consult the injector: fewer checks than
        # windows proves the open breaker skipped repair attempts.
        assert injector.calls < len(report.windows)

    def test_supervisor_gives_up_on_persistent_window_failure(
        self, tmp_path, stream, config
    ):
        injector = FaultInjector(FaultPlan(fail_nth=tuple(range(1, 50))))
        runtime = StreamRuntime(
            stream, tmp_path / "wal", config,
            max_restarts=2, window_injector=injector,
        )
        with pytest.raises(SupervisorGivingUp):
            runtime.run()

    def test_transient_window_failure_is_restarted(
        self, tmp_path, stream, config
    ):
        clean = StreamRuntime(stream, tmp_path / "a", config).run()
        injector = FaultInjector(FaultPlan(fail_nth=(2, 5)))
        runtime = StreamRuntime(
            stream, tmp_path / "b", config,
            max_restarts=3, window_injector=injector,
        )
        report = runtime.run()
        assert report.render() == clean.render()
        assert runtime.supervisor.restarts_used == 2


class TestWeightedStream:
    def test_exact_windows_use_the_weights(self, tmp_path, config):
        """Exact windows of a weighted stream equal the dict engine's
        top-k on the window's snapshots, on the direct path and on the
        fallback that two injected repair faults force."""
        stream = internet_weighted(scale=0.05, seed=3)
        injector = FaultInjector(FaultPlan(fail_nth=(2, 3)))
        runtime = StreamRuntime(
            stream, tmp_path / "wal", config, repair_injector=injector
        )
        report = runtime.run()
        assert {w.engine for w in report.windows} == {"dict", "dict-fallback"}
        for window in report.windows:
            g1, g2 = runtime.window_snapshots(window.index)
            assert list(window.pairs) == top_k_converging_pairs(
                g1, g2, config.k, engine="dict"
            )


class TestGuards:
    def test_time_breach_sheds_with_checkpoint(self, tmp_path, stream, config):
        ticks = iter(range(100))
        guard = ResourceGuard(
            soft_time_s=3.0, clock=lambda: float(next(ticks))
        )
        runtime = StreamRuntime(
            stream, tmp_path / "wal", config, guard=guard
        )
        report = runtime.run()
        assert report.status == "shed:time"
        assert report.consumed < len(stream)
        # The shed checkpoint makes the next run resume, not restart.
        resumed = StreamRuntime(stream, tmp_path / "wal", config)
        assert resumed.consumed == report.consumed
        final = resumed.run()
        assert final.status == "complete"
        assert final.consumed == len(stream)

    def test_memory_breach_sheds(self, tmp_path, stream, config):
        guard = ResourceGuard(soft_memory_mb=1, memory_probe=lambda: 2.0)
        report = StreamRuntime(
            stream, tmp_path / "wal", config, guard=guard
        ).run()
        assert report.status == "shed:memory"


class TestRecoveryEdges:
    def test_source_mismatch_is_refused(self, tmp_path, stream, config):
        StreamRuntime(stream, tmp_path / "wal", config).run(max_batches=3)
        other = random_temporal_graph(30, 120, seed=99)
        with pytest.raises(RuntimeRecoveryError, match="source"):
            StreamRuntime(other, tmp_path / "wal", config)
        # Four batches end on a checkpoint: no WAL suffix is left.
        StreamRuntime(stream, tmp_path / "ckpt", config).run(max_batches=4)
        rows = [(e.time, e.u, e.v, e.weight) for e in stream.events()]
        edited = TemporalGraph([(0, rows[0][1], 99, 1.0)] + rows[1:])
        with pytest.raises(RuntimeRecoveryError, match="source"):
            StreamRuntime(edited, tmp_path / "ckpt", config)
        # A source that only grew reopens and advances over the growth.
        grown = TemporalGraph(rows + [(len(rows), 0, 99, 1.0)])
        reopened = StreamRuntime(grown, tmp_path / "ckpt", config)
        assert reopened.consumed == 24
        assert reopened.run().consumed == len(rows) + 1

    def test_lost_checkpoints_after_compaction_are_fatal(
        self, tmp_path, stream, config
    ):
        runtime = StreamRuntime(stream, tmp_path / "wal", config)
        runtime.run(max_batches=4)  # at least one checkpoint + compaction
        assert runtime.wal.compacted_upto > 0
        runtime.store.clear()
        with pytest.raises(RuntimeRecoveryError, match="checkpoint"):
            StreamRuntime(stream, tmp_path / "wal", config)

    def test_incremental_labels_reopen_as_recorded(
        self, tmp_path, stream, config
    ):
        """Checkpointed ``incremental`` labels stay; new windows say csr."""
        clean = StreamRuntime(stream, tmp_path / "a", config).run()
        runtime = StreamRuntime(stream, tmp_path / "b", config)
        runtime.run(max_batches=4)
        for key in list(runtime.store.keys()):
            payload = runtime.store.get(key)
            for window in payload["windows"]:
                window["engine"] = "incremental"
            runtime.store.put(key, payload)
        report = StreamRuntime(stream, tmp_path / "b", config).run()
        assert report.render() == clean.render().replace(
            "engine=csr", "engine=incremental", 2
        )

    def test_recovery_emits_events(self, tmp_path, stream, config):
        StreamRuntime(stream, tmp_path / "wal", config).run(max_batches=3)
        with capture_events() as events:
            StreamRuntime(stream, tmp_path / "wal", config)
        kinds = [kind for kind, _ in events]
        assert "runtime.recovered" in kinds

    def test_hop_count_windows_of_a_weighted_stream_are_refused(
        self, tmp_path, config
    ):
        """A weighted stream's checkpoint whose windows carry the hop-count
        labels (as runs before weighted windows used the dict engine
        wrote them) must not reopen: later windows would be Dijkstra
        distances ranked beside hop counts."""
        stream = internet_weighted(scale=0.05, seed=3)
        runtime = StreamRuntime(stream, tmp_path / "wal", config)
        runtime.run(max_batches=12)
        assert {w.engine for w in runtime.windows} == {"dict"}
        hop_label = {"dict": "incremental", "dict-fallback": "csr-fallback"}
        for key in list(runtime.store.keys()):
            payload = runtime.store.get(key)
            for window in payload["windows"]:
                window["engine"] = hop_label[window["engine"]]
            runtime.store.put(key, payload)
        with pytest.raises(RuntimeRecoveryError, match="fresh --wal-dir"):
            StreamRuntime(stream, tmp_path / "wal", config)


class TestBudgetedMode:
    def test_budgeted_windows_resume_identically(self, tmp_path, stream):
        config = RuntimeConfig(
            k=4, batch_size=10, checkpoint_every=3,
            selector="SumDiff", m=6, seed=2,
        )
        uninterrupted = StreamRuntime(stream, tmp_path / "a", config).run()
        assert all(
            w.engine == "budgeted" for w in uninterrupted.windows
        )
        resumed = None
        for budget in (2, 4, 100):
            resumed = StreamRuntime(stream, tmp_path / "b", config).run(
                max_batches=budget
            )
            if resumed.status == "complete":
                break
        assert resumed is not None
        assert resumed.render() == uninterrupted.render()


class TestStateVersion:
    """The query-service surface: a monotonic, recovery-stable version."""

    def test_version_counts_closed_windows(self, tmp_path, stream, config):
        runtime = StreamRuntime(stream, tmp_path / "wal", config)
        assert runtime.state_version == 0
        runtime.run()
        assert runtime.state_version == len(runtime.windows) > 0

    def test_version_survives_reopen(self, tmp_path, stream, config):
        first = StreamRuntime(stream, tmp_path / "wal", config)
        first.run(max_batches=5)
        reopened = StreamRuntime(stream, tmp_path / "wal", config)
        assert reopened.state_version == first.state_version
        assert reopened.state_version == len(reopened.windows)

    def test_on_advance_fires_in_version_order(self, tmp_path, stream, config):
        seen = []
        runtime = StreamRuntime(
            stream, tmp_path / "wal", config,
            on_advance=lambda version, window: seen.append(
                (version, window.index)
            ),
        )
        runtime.run(max_batches=4)
        assert [v for v, _ in seen] == list(
            range(1, runtime.state_version + 1)
        )
        assert [i for _, i in seen] == [w.index for w in runtime.windows]

    def test_wal_replay_re_closes_fire_on_advance(
        self, tmp_path, stream, config
    ):
        # Tear the second window's checkpoint write: the window's
        # batches survive only in the WAL, so recovery must re-close it
        # through the callback with the same version it had in vivo.
        runtime = StreamRuntime(stream, tmp_path / "wal", config)
        real_put = runtime.store.put
        calls = {"n": 0}

        def torn_put(key, payload):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("torn checkpoint write")
            return real_put(key, payload)

        runtime.store.put = torn_put
        with pytest.raises(RuntimeError, match="torn"):
            runtime.run()
        assert runtime.state_version == 2  # closed in memory pre-crash
        seen = []
        reopened = StreamRuntime(
            stream, tmp_path / "wal", config,
            on_advance=lambda version, window: seen.append(version),
        )
        assert seen == [2], "the WAL-suffix window must replay on_advance"
        assert reopened.state_version == 2

    def test_version_resumes_monotonically(self, tmp_path, stream, config):
        StreamRuntime(stream, tmp_path / "wal", config).run(max_batches=3)
        resumed = StreamRuntime(stream, tmp_path / "wal", config)
        before = resumed.state_version
        resumed.run()
        assert resumed.state_version > before
        assert resumed.state_version == len(resumed.windows)


def adjacency_in_order(graph):
    """Nodes, each with its neighbours and weights, in storage order."""
    return [(u, list(graph.adjacency(u).items())) for u in graph.nodes()]


def assert_same_graph(got, want):
    assert adjacency_in_order(got) == adjacency_in_order(want)
    assert got.is_weighted() == want.is_weighted()


#: Unsanitised rows over 8 nodes: repeated pairs re-insert an edge,
#: weight <= 0 deletes it, and a few weights are not 1.
dirty_rows = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(0, 7),
        st.sampled_from([1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 0.0, -1.0]),
    ).filter(lambda row: row[0] != row[1]),
    min_size=12, max_size=80,
)


class TestKeptSnapshots:
    """The kept snapshots a window close carries forward equal a rebuild
    of the window's prefix, and nothing mutates them afterwards."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=dirty_rows,
        batch_size=st.integers(1, 4),
        checkpoint_every=st.integers(1, 3),
        reopen_after=st.integers(1, 8),
    )
    def test_kept_snapshots_equal_a_rebuild(
        self, rows, batch_size, checkpoint_every, reopen_after
    ):
        stream = TemporalGraph(
            [(t, u, v, w) for t, (u, v, w) in enumerate(rows)]
        )
        source_rows = [[e.time, e.u, e.v, e.weight] for e in stream.events()]
        config = RuntimeConfig(
            k=3, batch_size=batch_size, checkpoint_every=checkpoint_every
        )
        returned = []

        def check_latest(runtime):
            window = runtime.latest_window()
            if window is None:
                return
            g1, g2 = runtime.window_snapshots(window.index)
            assert_same_graph(g1, _materialise(source_rows[:window.start]))
            assert_same_graph(g2, _materialise(source_rows[:window.end]))
            pair = runtime.latest_pair()
            assert pair.g1 is g1
            returned.append((window.index, g1, g2, g1.copy(), g2.copy()))
            # An older window read in between must not displace the
            # kept one the next close builds on.
            older = runtime.windows[window.index // 2]
            o1, o2 = runtime.window_snapshots(older.index)
            assert_same_graph(o1, _materialise(source_rows[:older.start]))
            assert_same_graph(o2, _materialise(source_rows[:older.end]))

        with tempfile.TemporaryDirectory() as tmp:
            runtime = StreamRuntime(stream, tmp, config, fsync=False)
            batches = 0
            while True:
                closed = len(runtime.windows)
                status = runtime.run(max_batches=1).status
                batches += 1
                if len(runtime.windows) != closed:
                    check_latest(runtime)
                if batches == reopen_after:
                    runtime = StreamRuntime(stream, tmp, config, fsync=False)
                    check_latest(runtime)
                if status == "complete":
                    break
            assert runtime.consumed == len(source_rows)
            for index, g1, g2, copy1, copy2 in returned:
                assert_same_graph(g1, copy1)
                assert_same_graph(g2, copy2)
                again1, again2 = runtime.window_snapshots(index)
                assert_same_graph(again1, copy1)
                assert_same_graph(again2, copy2)


class TestCheckpointRecord:
    """Counts, not time: a checkpoint holds O(1) bytes plus the windows
    closed since the previous one, however many events the stream has
    applied and however many windows it has closed."""

    def test_record_does_not_grow_with_consumed_events(self, tmp_path):
        stream = random_temporal_graph(400, 2000, seed=3)
        assert len(stream) == 2000
        runtime = StreamRuntime(
            stream, tmp_path / "wal",
            RuntimeConfig(k=5, batch_size=8, checkpoint_every=4),
            fsync=False,
        )
        real_put = runtime.store.put
        residues = []

        def put(key, value):
            path = real_put(key, value)
            assert set(value) == {
                "schema", "seq", "consumed", "version", "events_sha256",
                "windows_before", "windows", "breaker",
            }
            windows = json.dumps(value["windows"], sort_keys=True)
            residues.append((
                value["consumed"], len(value["windows"]),
                path.stat().st_size - len(windows),
            ))
            return path

        runtime.store.put = put
        runtime.run()
        assert [c for c, _, _ in residues][-1] == 2000
        assert len(residues) == 63
        # Each record carries the one window closed since the last.
        assert [n for _, n, _ in residues] == [1] * 63
        sizes = [size for _, _, size in residues]
        # Only the digits of seq, consumed, version and windows_before
        # (and of the key's seq) may grow: 2000 events as JSON rows
        # would add ~40 KB, the 62 earlier windows ~15 KB.
        assert max(sizes) - min(sizes) <= 12

    @staticmethod
    def _chain(store):
        """The store's records in sequence order, checked to hold each
        window once, and the windows they hold."""
        records = sorted(
            (value for _, value in store.items()),
            key=lambda record: record["seq"],
        )
        chained = []
        for record in records:
            assert record["schema"] == 3
            assert record["windows_before"] == len(chained)
            chained.extend(record["windows"])
        return records, chained

    def test_records_are_kept_and_chain_their_windows(self, tmp_path, stream,
                                                      config):
        runtime = StreamRuntime(stream, tmp_path, config, fsync=False)
        runtime.run()
        records, chained = self._chain(runtime.store)
        assert len(records) == len(runtime.windows)
        assert chained == [w.to_payload() for w in runtime.windows]

    def test_the_first_checkpoint_after_a_reopen_folds_the_records(
        self, tmp_path, stream, config
    ):
        StreamRuntime(stream, tmp_path, config, fsync=False).run(
            max_batches=8
        )
        reopened = StreamRuntime(stream, tmp_path, config, fsync=False)
        read = sorted(key[2] for key in reopened.store.keys())
        assert len(read) == len(reopened.windows) == 4
        reopened.run()
        records, chained = self._chain(reopened.store)
        # One record holds the five windows up to the first close after
        # the reopen; one record per window follows it.
        assert records[0]["seq"] > read[-1]
        assert [len(r["windows"]) for r in records] == [5, 1, 1, 1, 1, 1]
        assert chained == [w.to_payload() for w in reopened.windows]
        again = StreamRuntime(stream, tmp_path, config, fsync=False)
        assert again.windows == reopened.windows

    def test_a_crash_before_the_fold_deletes_reopens(self, tmp_path, stream,
                                                    config):
        uninterrupted = StreamRuntime(
            stream, tmp_path / "a", config, fsync=False
        ).run()
        StreamRuntime(stream, tmp_path / "b", config, fsync=False).run(
            max_batches=8
        )

        class Crash(BaseException):
            pass

        def chaos(point):
            if point == "checkpoint.mid":
                raise Crash()

        crashed = StreamRuntime(
            stream, tmp_path / "b", config, fsync=False, chaos=chaos
        )
        with pytest.raises(Crash):
            crashed.run()
        # The four records the fold read, and the fold itself.
        assert len(crashed.store) == 5
        survivor = StreamRuntime(stream, tmp_path / "b", config, fsync=False)
        assert len(survivor.windows) == 5
        assert survivor.run().render() == uninterrupted.render()
        records, chained = self._chain(survivor.store)
        assert chained == [w.to_payload() for w in uninterrupted.windows]

    @pytest.mark.parametrize("raises", ["put", "compact"])
    def test_a_checkpoint_that_raised_after_its_record_landed_reopens(
        self, tmp_path, stream, config, raises
    ):
        """The record landed, then its checkpoint raised (the store's
        directory sync, or the WAL rewrite, out of space); the runtime
        lives on, as under ``repro serve``, and the directory still
        reopens with every window."""
        uninterrupted = StreamRuntime(
            stream, tmp_path / "a", config, fsync=False
        ).run()
        runtime = StreamRuntime(stream, tmp_path / "b", config, fsync=False)
        runtime.run(max_batches=4)
        owner = runtime.store if raises == "put" else runtime.wal
        real = getattr(owner, raises)
        raised = []

        def once(*args):
            result = real(*args)
            if not raised:
                raised.append(args)
                raise OSError(28, "No space left on device")
            return result

        setattr(owner, raises, once)
        with pytest.raises(OSError):
            runtime.run()
        assert runtime.run().render() == uninterrupted.render()
        reopened = StreamRuntime(stream, tmp_path / "b", config, fsync=False)
        assert reopened.windows == uninterrupted.windows
        if raises == "compact":
            # The runtime knew its record had landed: no window repeats.
            _, chained = self._chain(runtime.store)
            assert len(chained) == len(uninterrupted.windows)

    def _checkpointed(self, tmp_path, stream, config):
        StreamRuntime(stream, tmp_path, config, fsync=False).run()
        store = StreamRuntime(stream, tmp_path, config, fsync=False).store
        keys = sorted(store.keys(), key=lambda key: key[2])
        assert len(keys) > 3
        return store, keys

    def test_a_deleted_middle_record_is_refused(self, tmp_path, stream,
                                                config):
        store, keys = self._checkpointed(tmp_path, stream, config)
        store.delete(keys[len(keys) // 2])
        with pytest.raises(RuntimeRecoveryError, match="missing"):
            StreamRuntime(stream, tmp_path, config, fsync=False)

    def test_a_corrupt_middle_record_is_refused(self, tmp_path, stream,
                                                config):
        store, keys = self._checkpointed(tmp_path, stream, config)
        path = store._path(keys[1])
        record = json.loads(path.read_text(encoding="utf-8"))
        record["value"]["windows"][0]["engine"] = "dict"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(RuntimeRecoveryError, match="missing"):
            StreamRuntime(stream, tmp_path, config, fsync=False)

    def test_a_shed_at_a_recorded_sequence_rewrites_its_record(
        self, tmp_path, stream, config
    ):
        runtime = StreamRuntime(stream, tmp_path, config, fsync=False)
        runtime.run(max_batches=4)  # ends on a window close
        key = ["runtime", "state", runtime._applied_seq]
        before = runtime.store.get(key)
        assert before["windows"]
        runtime.guard = ResourceGuard(
            soft_memory_mb=1, memory_probe=lambda: 2.0
        )
        assert runtime.run().status == "shed:memory"
        assert runtime.store.get(key) == before
        assert len(runtime.store) == len(runtime.windows)
        reopened = StreamRuntime(stream, tmp_path, config, fsync=False)
        assert reopened.windows == runtime.windows


class TestOnePairPerWindow:
    """Counts, not time: a window validates its snapshots once and builds
    one :class:`SnapshotPair`, which its computation and every later
    read share."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """``check``: validations; ``build``: pairs frozen by either
        constructor."""
        import sys

        from repro.graph import validation
        from repro.graph.pair import SnapshotPair

        seen = {"check": 0, "build": 0}
        check = validation.check_snapshot_pair

        def counted_check(g1, g2):
            seen["check"] += 1
            return check(g1, g2)

        # Rebind the name wherever a module imported it.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and module is not None and (
                getattr(module, "check_snapshot_pair", None) is check
            ):
                monkeypatch.setattr(
                    module, "check_snapshot_pair", counted_check
                )
        for constructor in ("from_graphs", "after"):
            build = getattr(SnapshotPair, constructor).__func__

            def counted_build(cls, *args, _build=build):
                seen["build"] += 1
                return _build(cls, *args)

            monkeypatch.setattr(
                SnapshotPair, constructor, classmethod(counted_build)
            )
        return seen

    def _advance_window_by_window(self, runtime, counts):
        """Close every window; after each, read it twice.  A window
        validates only when it tries the direct path (the breaker may
        send it straight to the fallback), and builds one pair either
        way."""
        closed = 0
        while True:
            status = runtime.run(max_batches=1).status
            if len(runtime.windows) != closed:
                closed = len(runtime.windows)
                pair = runtime.latest_pair()
                # The first window's G_t1 is empty: its read finds nothing.
                u = pair.nodes[0] if pair.nodes else 0
                assert node_answer(runtime, u)["present"] == bool(pair.nodes)
                assert runtime.latest_pair() is pair
                assert counts["build"] == closed
                assert counts["check"] <= closed
            if status == "complete":
                return closed

    @pytest.mark.parametrize("selector", [None, "MMSD"])
    def test_one_check_and_one_build_per_window(
        self, tmp_path, stream, counts, selector
    ):
        config = RuntimeConfig(
            k=5, batch_size=6, checkpoint_every=2, selector=selector,
            m=0 if selector is None else 4,
        )
        runtime = StreamRuntime(stream, tmp_path, config, fsync=False)
        closed = self._advance_window_by_window(runtime, counts)
        assert closed > 5
        assert counts == {"check": closed, "build": closed}
        assert {w.engine for w in runtime.windows} == {
            "csr" if selector is None else "budgeted"
        }

    @pytest.mark.parametrize("selector", [None, "MMSD"])
    def test_the_next_pair_is_built_on_the_kept_one(
        self, tmp_path, stream, monkeypatch, selector
    ):
        """Only the first window freezes its ``G_t1``: every later one
        takes the kept pair's ``csr2`` as its ``csr1`` and freezes its
        ``G_t2`` alone."""
        from repro.graph.csr import CSRGraph

        frozen = []
        build = CSRGraph.from_graph.__func__

        def counted(cls, graph, nodes=None):
            frozen.append(graph)
            return build(cls, graph, nodes)

        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(counted))
        pairs = []
        runtime = StreamRuntime(
            stream, tmp_path, RuntimeConfig(
                k=5, batch_size=6, checkpoint_every=2, selector=selector,
                m=0 if selector is None else 4,
            ),
            fsync=False,
            on_advance=lambda _version, _window: pairs.append(
                runtime.latest_pair()
            ),
        )
        runtime.run()
        assert len(pairs) == len(runtime.windows) > 5
        assert len(frozen) == len(pairs) + 1
        for before, pair in zip(pairs, pairs[1:]):
            assert pair.g1 is before.g2
            assert pair.csr1 is before.csr2
            assert pair.nodes is before.csr2.nodes

    def test_fallback_window_keeps_its_repaired_pair(self, tmp_path, counts):
        runtime = StreamRuntime(
            dirty_stream(), tmp_path, RuntimeConfig(k=5, batch_size=6),
            fsync=False,
        )
        closed = self._advance_window_by_window(runtime, counts)
        fallback = [w for w in runtime.windows if w.engine.endswith("fallback")]
        assert fallback and counts["build"] == closed
        pair = runtime.latest_pair()
        if runtime.windows[-1] in fallback:
            assert pair.g2 is not runtime.window_snapshots(closed - 1)[1]

    def test_a_reopened_window_builds_its_pair_on_first_read(
        self, tmp_path, stream, config, counts
    ):
        StreamRuntime(stream, tmp_path, config, fsync=False).run()
        reopened = StreamRuntime(stream, tmp_path, config, fsync=False)
        before = dict(counts)
        pair = reopened.latest_pair()
        assert reopened.latest_pair() is pair
        assert counts == {"check": before["check"],
                          "build": before["build"] + 1}
