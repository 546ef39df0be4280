"""Chaos tests for the parallel execution layer (``pytest -m faults``).

A worker-chunk failure — injected deterministically through
:class:`FaultInjector`, or a real worker crash — must degrade to serial
recomputation of just that chunk, produce output equal to a clean serial
run, and report the failure (``failed_chunks`` + ``parallel.degraded``
events).  The retry-backoff regression tests pin event payloads exactly:
every delay comes from the seeded policy, never the wall clock, and
checkpoint keys stay pure functions of the experiment config.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments import runner
from repro.experiments.runner import coverage_cells
from repro.parallel import ParallelExecutor, in_worker
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    capture_events,
)

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# Module-level task functions (picklable)
# ----------------------------------------------------------------------
def _plus_one(x: int) -> int:
    return x + 1


def _exit_worker_on_seven(x: int) -> int:
    if x == 7 and in_worker():
        os._exit(13)  # the worker dies without unwinding
    return x + 1


def _kill_worker_on_seven(x: int) -> int:
    if x == 7 and in_worker():
        os.kill(os.getpid(), signal.SIGKILL)  # OOM-killer style
    return x + 1


def _refuse_in_worker(x: int) -> int:
    if in_worker():
        raise RuntimeError("worker refuses")
    _PARENT_CALLS["n"] += 1
    if _PARENT_CALLS["n"] == 1:
        raise RuntimeError("transient parent failure")
    return x * 3


_PARENT_CALLS = {"n": 0}


# ----------------------------------------------------------------------
# Executor degradation
# ----------------------------------------------------------------------
class TestChunkDegradation:
    def test_injected_chunk_failure_degrades_to_serial(self):
        items = list(range(12))
        injector = FaultInjector(FaultPlan(fail_nth=(2,)))
        executor = ParallelExecutor(
            2, chunk_size=3, fault_injector=injector
        )
        with capture_events() as events:
            result = executor.map(_plus_one, items, unit="chaos")
        assert result == [x + 1 for x in items]
        assert executor.failed_chunks == [
            {
                "chunk": 1,
                "items": 3,
                "error": (
                    "InjectedFault: injected fault on call 2 of "
                    "'chaos[chunk=1]'"
                ),
            }
        ]
        degraded = [e for e in events if e[0] == "parallel.degraded"]
        assert degraded == [
            (
                "parallel.degraded",
                {"unit": "chaos", "chunk": 1, "items": 3,
                 "error": "InjectedFault"},
            )
        ]

    def test_real_worker_crash_degrades_to_serial(self):
        items = list(range(12))
        executor = ParallelExecutor(2, chunk_size=3)
        with capture_events() as events:
            result = executor.map(_exit_worker_on_seven, items, unit="crash")
        assert result == [x + 1 for x in items]
        assert executor.failed_chunks  # the crashed chunk is reported
        assert any(e[0] == "parallel.degraded" for e in events)

    def test_kill9_worker_degrades_to_serial(self):
        # A dead worker breaks the whole pool, so how many chunks degrade
        # depends on timing and start method; only the output may not.
        items = list(range(12))
        executor = ParallelExecutor(2, chunk_size=3)
        with capture_events() as events:
            result = executor.map(_kill_worker_on_seven, items, unit="kill9")
        assert result == [x + 1 for x in items]
        assert executor.failed_chunks  # the crashed chunk is reported
        assert any(e[0] == "parallel.degraded" for e in events)

    def test_seeded_fail_rate_is_reproducible(self):
        items = list(range(20))
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(FaultPlan(fail_rate=0.5, seed=3))
            executor = ParallelExecutor(
                2, chunk_size=4, fault_injector=injector
            )
            result = executor.map(_plus_one, items, unit="rate")
            outcomes.append((result, executor.failed_chunks))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [x + 1 for x in items]


# ----------------------------------------------------------------------
# Coverage-cell sweeps under faults
# ----------------------------------------------------------------------
def _cell_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scale=0.15, budget=8, budget_sweep=(4, 8), delta_offsets=(0,),
        repeats=1, datasets=("facebook",), incbet_pivots=16,
        experiment="chaos",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


CELL_SPECS = [
    ("facebook", "Degree", 8, 0),
    ("facebook", "SumDiff", 8, 0),
    ("facebook", "Degree", 4, 0),
    ("facebook", "SumDiff", 4, 0),
]


class TestCoverageCellsUnderFaults:
    def test_degraded_sweep_equals_serial_and_reports_chunks(self):
        serial = coverage_cells(CELL_SPECS, _cell_config(workers=1))
        injector = FaultInjector(FaultPlan(fail_nth=(2,)))
        with capture_events() as events:
            values = coverage_cells(
                CELL_SPECS, _cell_config(workers=2),
                chunk_size=2, fault_injector=injector,
            )
        assert values == serial
        degraded = [f for k, f in events if k == "parallel.degraded"]
        assert degraded == [
            {"unit": "cells:chaos", "chunk": 1, "items": 2,
             "error": "InjectedFault"}
        ]


# ----------------------------------------------------------------------
# Seeded-backoff regression: no wall clock in events or checkpoint keys
# ----------------------------------------------------------------------
class TestSeededBackoffRegression:
    def test_degraded_chunk_retry_events_are_pinned(self):
        """The whole degradation transcript is a pure function of seeds."""
        _PARENT_CALLS["n"] = 0
        policy = RetryPolicy(max_retries=2, base_delay=0.5, seed=9)
        expected_delay = round(next(iter(policy.delays())), 6)
        sleeps = []
        executor = ParallelExecutor(
            2, chunk_size=1, retry_policy=policy, sleep=sleeps.append
        )
        with capture_events() as events:
            result = executor.map(_refuse_in_worker, [5], unit="pin")
        assert result == [15]
        assert events == [
            (
                "parallel.degraded",
                {"unit": "pin", "chunk": 0, "items": 1,
                 "error": "RuntimeError"},
            ),
            (
                "retry",
                {"unit": "pin[chunk=0]", "attempt": 1,
                 "delay": expected_delay, "error": "RuntimeError"},
            ),
        ]
        assert sleeps == pytest.approx([expected_delay], abs=1e-6)

    def test_cell_retry_payloads_and_checkpoint_keys(self, tmp_path, monkeypatch):
        """Retries inside a cell leave only seeded values behind: the
        retry event's delay comes from the config's seed, and the
        checkpoint key written afterwards is exactly the config-derived
        cell identity (no timestamps, no worker fields)."""
        from repro.resilience import CheckpointStore

        config = _cell_config(
            workers=1, max_retries=1, retry_backoff_s=0.001, seed=5,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        real = runner.candidate_pair_coverage
        calls = {"n": 0}

        def flaky(candidates, truth_pairs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient cell failure")
            return real(candidates, truth_pairs)

        monkeypatch.setattr(runner, "candidate_pair_coverage", flaky)
        context = runner.get_context("facebook", config.scale)
        with capture_events() as events:
            value = runner.coverage_cell(context, "Degree", 8, 0, config)
        assert value == value  # not NaN: the retry recovered the cell

        expected_delay = round(
            next(iter(RetryPolicy(
                max_retries=1, base_delay=0.001, seed=5
            ).delays())),
            6,
        )
        retries = [f for k, f in events if k == "retry"]
        assert len(retries) == 1
        assert retries[0]["delay"] == expected_delay
        assert retries[0]["error"] == "RuntimeError"

        delta = context.delta_for_offset(0)
        expected_key = runner._cell_key(context, "Degree", 8, delta, config)
        store = CheckpointStore(config.checkpoint_dir)
        keys = list(store.keys())
        assert keys == [json.loads(json.dumps(expected_key))]
