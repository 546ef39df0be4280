"""Operation records, quantiles, the set-up timer and the probed batch loop."""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from clock import HostClock
from tracer import Tracer


@dataclass
class Job:
    """One distinct batch operation: what to run and its class label."""

    job_id: str
    klass: str
    file_key: str
    params: Dict[str, Any]


@dataclass
class OpRecord:
    """One executed operation (batch call or served request)."""

    op_id: str
    job_id: str
    klass: str
    t0: float
    t1: float
    ok: bool
    output: Any = None
    #: Harness turnaround before the operation started (after the probe).
    lag_s: float = 0.0
    norm_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile: at least 10% of values lie at or above."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)])


def normalise_records(records: List[OpRecord], host: HostClock) -> None:
    for rec in records:
        rec.norm_s = host.normalised(rec.t0, rec.t1)


def breakdown(records: Sequence[OpRecord]) -> Dict[str, Dict[str, float]]:
    """Per-class operation count, median and p90 (normalised ms)."""
    classes: Dict[str, List[float]] = {}
    for rec in records:
        classes.setdefault(rec.klass, []).append(rec.norm_s * 1000.0)
    return {
        klass: {
            "ops": len(values),
            "median_ms": median(values),
            "p90_ms": p90(values),
        }
        for klass, values in sorted(classes.items())
    }


class SetupTimer:
    """Times one set-up as a run of steps, with a probe after each step.

    A set-up of seconds spans host-speed changes that probes at its two
    ends would miss, so each step is normalised with the probes around
    it.  The probes are not part of the set-up's time.  The heap is
    collected first, so that a set-up never pays for collecting garbage
    the benchmark or an earlier set-up left; the caller drops what the
    earlier set-up built before making the timer.
    """

    def __init__(self, host: HostClock) -> None:
        self.host = host
        self.steps: List[Tuple[float, float]] = []
        gc.collect()
        host.probe()
        host.probe()

    def __call__(self, step: Callable[[], Any]) -> Any:
        """Run one step, time it, probe; returns the step's result."""
        t0 = time.perf_counter()
        result = step()
        self.steps.append((t0, time.perf_counter()))
        self.host.probe()
        return result

    def normalised_s(self) -> float:
        """Reference seconds; call once later probes exist."""
        return sum(self.host.normalised(t0, t1) for t0, t1 in self.steps)

    def wall_s(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.steps)


def run_batch(
    jobs: Iterator[Job],
    execute: Callable[[Job], Any],
    host: HostClock,
    *,
    round_ops: int,
    target_s: Optional[float],
    min_ops: int = 0,
    tracer: Optional[Tracer] = None,
) -> List[OpRecord]:
    """Run whole rounds of jobs, with a probe after each job.

    Every round holds each distinct job once, so every run has the same
    class mix.  With ``target_s`` the phase stops before a round once
    ``min_ops`` operations are done and the next round would end more
    than half a round past ``target_s`` reference seconds; without it,
    exactly one round runs.  A job that raises is a failed operation;
    the phase goes on.
    """
    records: List[OpRecord] = []
    elapsed = 0.0
    host.probe()
    host.probe()
    ready = time.perf_counter()
    for index, job in enumerate(jobs):
        if index % round_ops == 0 and index > 0:
            if target_s is None:
                break
            per_round = elapsed * round_ops / index
            if index >= min_ops and elapsed + 0.5 * per_round >= target_s:
                break
        op_id = f"op{index}"
        span = tracer.open("op", "bench.op", op=op_id) if tracer else None
        t0 = time.perf_counter()
        try:
            output, ok = execute(job), True
        except Exception as exc:  # noqa: BLE001 - a failing job is a counted failure
            output, ok = f"{type(exc).__name__}: {exc}", False
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
        host.probe()
        records.append(OpRecord(op_id, job.job_id, job.klass, t0, t1, ok,
                                output, lag_s=t0 - ready))
        ready = time.perf_counter()
        elapsed += (t1 - t0) * host.p_ref_s / host.recent(3)
    host.probe()
    normalise_records(records, host)
    return records
