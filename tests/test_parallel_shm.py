"""Shared-memory arena lifecycle: publish, attach, degrade, crash, unlink.

The crash-safety claims in ``docs/parallel.md`` are pinned here: a
kill-9'd worker never takes the segment (or the run) down with it, a
kill-9'd parent leaks nothing (the resource tracker reaps its
registration), and every normal run — fork or spawn, any worker count —
ends with zero ``/dev/shm/repro_*`` survivors.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from conftest import random_snapshot_pair
from repro.graph.csr import bfs_levels
from repro.graph.pair import SnapshotPair
from repro.parallel import (
    ParallelExecutor,
    SharedCsrArena,
    attach_state,
    derive_run_id,
    in_worker,
    leaked_segments,
    worker_state,
)
from repro.parallel.shm import segment_name
from repro.resilience import FaultInjector, FaultPlan, capture_events

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must end segment-clean."""
    before = leaked_segments()
    yield
    assert leaked_segments() == before == []


def _arena_state():
    """What Algorithm 1 ships to a pool (both CSR views and the t1 → t2
    map), plus a plain array and plain values."""
    g1, g2 = random_snapshot_pair(40, 100, seed=4)
    pair = SnapshotPair.from_graphs(g1, g2)
    return {
        "csr": pair.csr1,
        "csr2": pair.csr2,
        "mapping": pair.mapping,
        "weights": np.arange(8, dtype=np.float64),
        "label": "plain-value",
        "k": 5,
    }


# ----------------------------------------------------------------------
# Module-level task functions (picklable)
# ----------------------------------------------------------------------
def _row_via_shared_csr(i: int) -> bytes:
    return bfs_levels(worker_state()["csr"], i).tobytes()


def _state_probe(_: int) -> tuple:
    state = worker_state()
    return (
        in_worker(),
        state["label"],
        state["k"],
        bool(state["csr"].indptr.flags.writeable),
    )


def _kill_worker_on_three(i: int) -> bytes:
    if i == 3 and in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return bfs_levels(worker_state()["csr"], i).tobytes()


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
class TestRunId:
    def test_derive_run_id_is_deterministic(self):
        assert derive_run_id("topk", 7, None) == derive_run_id("topk", 7, None)
        assert derive_run_id("topk", 7) != derive_run_id("topk", 8)
        rid = derive_run_id("apsp", 1090, 2948, 64)
        assert len(rid) == 12 and segment_name(rid).startswith("repro_")

    def test_bad_run_ids_rejected(self):
        for bad in ("", "a" * 65, "has space", "sl/ash", "nul\x00"):
            with pytest.raises(ValueError):
                segment_name(bad)


# ----------------------------------------------------------------------
# Publish / attach / recompose
# ----------------------------------------------------------------------
class TestArenaRoundtrip:
    def test_parent_state_recomposes_every_kind(self):
        state = _arena_state()
        arena = SharedCsrArena.maybe_publish(state, run_id="roundtrip-test")
        assert arena is not None
        try:
            got = arena.parent_state()
            assert got["label"] == "plain-value" and got["k"] == 5
            assert np.array_equal(got["weights"], state["weights"])
            assert got["csr"].nodes == state["csr"].nodes
            assert np.array_equal(got["csr"].indptr, state["csr"].indptr)
            assert np.array_equal(got["csr"].indices, state["csr"].indices)
            assert np.array_equal(got["mapping"], state["mapping"])
            assert got["csr2"].nodes == state["csr2"].nodes
            assert np.array_equal(got["csr2"].indices, state["csr2"].indices)
            # Views are read-only: shared pages must never be mutable.
            with pytest.raises(ValueError):
                got["csr"].indptr[0] = 99
            with pytest.raises(ValueError):
                got["weights"][0] = 1.0
        finally:
            arena.destroy()

    def test_attach_state_matches_parent_state(self):
        state = _arena_state()
        arena = SharedCsrArena.maybe_publish(state, run_id="attach-test")
        assert arena is not None
        try:
            attached = attach_state(arena.worker_payload())
            assert attached["label"] == "plain-value"
            assert np.array_equal(attached["csr"].indptr, state["csr"].indptr)
            assert not attached["csr"].indices.flags.writeable
        finally:
            arena.destroy()

    def test_maybe_publish_returns_none_without_arrays(self):
        assert SharedCsrArena.maybe_publish(
            {"label": "x", "k": 3}, run_id="nothing-shared"
        ) is None

    def test_publish_requires_shareable_state(self):
        with pytest.raises(ValueError):
            SharedCsrArena.publish({"k": 3}, run_id="nothing-shared")

    def test_destroy_is_idempotent(self):
        arena = SharedCsrArena.maybe_publish(
            {"a": np.arange(4)}, run_id="destroy-twice"
        )
        assert arena is not None
        arena.destroy()
        arena.destroy()
        with pytest.raises(ValueError):
            arena.parent_state()

    def test_name_collision_resolves_by_deterministic_probing(self):
        taken = shared_memory.SharedMemory(
            name=segment_name("collide-me"), create=True, size=64
        )
        try:
            arena = SharedCsrArena.maybe_publish(
                {"a": np.arange(4)}, run_id="collide-me"
            )
            assert arena is not None
            try:
                assert arena.segment != taken.name
                assert arena.segment.startswith(segment_name("collide-me"))
                assert np.array_equal(
                    arena.parent_state()["a"], np.arange(4)
                )
            finally:
                arena.destroy()
            # The stale squatter is untouched — never unlinked by probing.
            assert leaked_segments() == [taken.name]
        finally:
            taken.close()
            taken.unlink()


# ----------------------------------------------------------------------
# Executor integration: fork × spawn, degradation via attached views
# ----------------------------------------------------------------------
class TestExecutorShm:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_rows_bit_identical(self, method, workers):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable")
        state = _arena_state()
        csr = state["csr"]
        serial = [bfs_levels(csr, i).tobytes() for i in range(csr.num_nodes)]
        with capture_events() as events:
            executor = ParallelExecutor(
                workers,
                state=state,
                start_method=method,
                shm_run_id=derive_run_id("shm-oracle", method, workers),
            )
            rows = executor.map(
                _row_via_shared_csr, range(csr.num_nodes), unit="shm.oracle"
            )
        assert rows == serial
        published = [f for k, f in events if k == "parallel.shm_published"]
        assert len(published) == 1 and published[0]["bytes"] > 0

    def test_workers_see_plain_state_and_readonly_views(self):
        executor = ParallelExecutor(
            2,
            state=_arena_state(),
            shm_run_id=derive_run_id("probe"),
        )
        probes = executor.map(_state_probe, range(4), unit="shm.probe")
        assert all(
            probe == (True, "plain-value", 5, False) for probe in probes
        )

    def test_env_start_method_is_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        executor = ParallelExecutor(2, state={"x": 1})
        assert executor.start_method == "spawn"
        monkeypatch.delenv("REPRO_PARALLEL_START_METHOD")
        assert ParallelExecutor(2).start_method is None

    def test_degraded_chunk_recomputes_over_attached_views(self):
        state = _arena_state()
        csr = state["csr"]
        serial = [bfs_levels(csr, i).tobytes() for i in range(csr.num_nodes)]
        with capture_events() as events:
            executor = ParallelExecutor(
                2,
                state=state,
                chunk_size=5,
                fault_injector=FaultInjector(FaultPlan(fail_nth=(2,))),
                shm_run_id=derive_run_id("degraded-views"),
            )
            rows = executor.map(
                _row_via_shared_csr, range(csr.num_nodes), unit="shm.degrade"
            )
        assert rows == serial
        assert len(executor.failed_chunks) == 1
        assert any(k == "parallel.degraded" for k, _ in events)
        # The degraded recomputation read the arena's read-only views —
        # the same pages the workers mapped, not a fresh copy.
        assert not worker_state()["csr"].indptr.flags.writeable


# ----------------------------------------------------------------------
# Chaos: hard kills on either side of the pool
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestCrashSafety:
    def test_kill9_worker_mid_chunk_degrades_and_unlinks(self):
        state = _arena_state()
        csr = state["csr"]
        serial = [bfs_levels(csr, i).tobytes() for i in range(csr.num_nodes)]
        with capture_events() as events:
            executor = ParallelExecutor(
                2,
                state=state,
                chunk_size=4,
                shm_run_id=derive_run_id("kill9-worker"),
            )
            rows = executor.map(
                _kill_worker_on_three, range(csr.num_nodes), unit="shm.kill9"
            )
        # The run completed via degradation, output equal to serial…
        assert rows == serial
        assert executor.failed_chunks  # BrokenProcessPool chunks degraded
        assert any(k == "parallel.degraded" for k, _ in events)
        # …and the autouse fixture asserts the parent unlinked everything.

    def test_kill9_parent_leaks_nothing(self, tmp_path):
        """The creator's resource tracker reaps segments on parent death."""
        script = tmp_path / "parent.py"
        script.write_text(
            "import json, os, signal, sys\n"
            "import numpy as np\n"
            "from repro.parallel import SharedCsrArena\n"
            "arena = SharedCsrArena.maybe_publish(\n"
            "    {'a': np.arange(1024)}, run_id='parent-kill9'\n"
            ")\n"
            "print(json.dumps({'segment': arena.segment}), flush=True)\n"
            "sys.stdout.close()\n"
            "signal.pause()\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            segment = json.loads(line)["segment"]
            assert segment in leaked_segments()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            # The resource tracker survives the SIGKILL briefly; give it
            # a moment to notice the pipe closed and unlink.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if segment not in leaked_segments():
                    break
                time.sleep(0.05)
            assert segment not in leaked_segments()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
