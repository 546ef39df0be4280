"""Process-pool execution layer with a bit-identical serial fallback.

Every number the reproduction emits bottoms out in repeated independent
SSSP runs, and an experiment sweep holds many independent coverage
cells of them.  :class:`ParallelExecutor` fans such item lists out
across a ``concurrent.futures.ProcessPoolExecutor`` while guaranteeing
results **equal to serial execution**:

* items are split into contiguous chunks and submitted in order; results
  are reassembled by chunk index, so the output order never depends on
  worker scheduling;
* the task function is applied once per item in both modes — worker
  count and chunk size can only change *where* an item runs, never what
  it computes;
* ``workers=1`` (and any platform without a usable multiprocessing start
  method) runs the exact same per-item loop in-process, with no pool.

Worker-side state (a frozen config) is installed once per worker
through the pool initializer — each worker unpickles it a single time,
not per task.  Task functions are plain module-level functions that
read it back via :func:`worker_state`.

Failure semantics integrate with :mod:`repro.resilience`: a chunk whose
worker crashes (or whose future raises) is recomputed *serially in the
parent* under :func:`~repro.resilience.degrade.run_guarded`, so one bad
worker degrades that chunk — never the whole run — and the degradation
is recorded in :attr:`ParallelExecutor.failed_chunks` plus a
``parallel.degraded`` event.  Retry backoff, when a policy is supplied,
is the resilience layer's seeded jitter: no wall-clock value ever enters
an event payload or a result.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.resilience.degrade import describe_error, run_guarded
from repro.resilience.events import log_event
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import RetryPolicy

T = TypeVar("T")
R = TypeVar("R")

#: Preference order for multiprocessing start methods.  ``fork`` shares
#: the parent's memory image (the cheapest bring-up); ``spawn``
#: re-imports and unpickles, which the initializer protocol supports on
#: platforms without fork (macOS, Windows).
_START_METHODS = ("fork", "spawn")

# ----------------------------------------------------------------------
# Worker-side state registry
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {}
_IN_WORKER = False


def worker_state() -> Dict[str, Any]:
    """The state dict installed for the current process's tasks.

    In a pool worker this is the executor's ``state`` (unpickled once by
    the initializer); in the parent it is the same dict, installed
    before any serial (fallback or degraded-chunk) execution.
    """
    return _WORKER_STATE


def in_worker() -> bool:
    """Whether the current process is a pool worker (False in the parent)."""
    return _IN_WORKER


def _install_state(state: Dict[str, Any]) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE.update(state)


def _pool_init(state: Dict[str, Any]) -> None:
    """Pool initializer: runs once per worker process."""
    global _IN_WORKER
    _IN_WORKER = True
    _install_state(state)


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """Worker entry point: apply ``fn`` to every item of one chunk."""
    return [fn(item) for item in chunk]


def available_start_method() -> Optional[str]:
    """The start method the executor will use (``None`` = serial only)."""
    methods = multiprocessing.get_all_start_methods()
    for method in _START_METHODS:
        if method in methods:
            return method
    return None


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class ParallelExecutor:
    """Chunked, order-preserving process-pool map with serial semantics.

    Parameters
    ----------
    workers:
        Pool size; ``1`` runs everything in-process (no pool, no pickling
        beyond what the caller already did).
    state:
        Dict installed once per worker (and in the parent before any
        serial execution); task functions read it via
        :func:`worker_state`.  Must be picklable when ``workers > 1``.
    chunk_size:
        Items per submitted chunk.  Defaults to roughly four chunks per
        worker.  Results are independent of this value by construction.
    retry_policy:
        Optional seeded :class:`~repro.resilience.policy.RetryPolicy`
        applied to the *serial recomputation* of a failed chunk.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` checked
        once per chunk dispatch — the chaos hook that simulates a worker
        failure deterministically.
    start_method:
        Multiprocessing start method override (default: the
        ``REPRO_PARALLEL_START_METHOD`` environment variable if set —
        the CI matrix knob — else ``fork`` when available, else
        ``spawn``; serial fallback when neither exists).
    sleep:
        Injectable sleep passed to the retry policy during degraded
        recomputation, so tests never wall-clock-wait.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        state: Optional[Dict[str, Any]] = None,
        chunk_size: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        start_method: Optional[str] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self.start_method = start_method or os.environ.get(
            "REPRO_PARALLEL_START_METHOD"
        )
        self._state = dict(state) if state else {}
        self._sleep = sleep
        #: ``{"chunk": index, "items": count, "error": "Type: msg"}`` per
        #: chunk that failed in the pool and was recomputed serially.
        self.failed_chunks: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def _chunks(self, items: List[T]) -> List[List[T]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (self.workers * 4)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _serial(self, fn: Callable[[T], R], items: List[T]) -> List[R]:
        _install_state(self._state)
        return [fn(item) for item in items]

    def _record_failure(
        self, index: int, size: int, exc: BaseException, unit: str
    ) -> None:
        self.failed_chunks.append(
            {"chunk": index, "items": size, "error": describe_error(exc)}
        )
        log_event(
            "parallel.degraded",
            unit=unit,
            chunk=index,
            items=size,
            error=type(exc).__name__,
        )

    def _recompute(
        self, fn: Callable[[T], R], chunk: List[T], unit: str, index: int
    ) -> List[R]:
        """Serial in-parent recomputation of one failed chunk."""

        def compute() -> List[R]:
            return [fn(item) for item in chunk]

        if self.retry_policy is None:
            return compute()
        value, _ = run_guarded(
            compute,
            unit=f"{unit}[chunk={index}]",
            retry_policy=self.retry_policy,
            on_error="fail",
            sleep=self._sleep,
        )
        assert value is not None
        return value

    # ------------------------------------------------------------------
    def map(
        self, fn: Callable[[T], R], items: Iterable[T], *, unit: str = "parallel"
    ) -> List[R]:
        """Apply ``fn`` to every item; results in input order.

        ``fn`` must be a module-level (picklable) function when
        ``workers > 1``.  Raises whatever ``fn`` raises if even the
        serial recomputation of a failed chunk fails — infrastructure
        faults degrade, real errors stay loud.
        """
        items = list(items)
        self.failed_chunks = []
        if not items or self.workers == 1:
            return self._serial(fn, items)
        method = self.start_method or available_start_method()
        if method is None:  # pragma: no cover - no such CPython platform
            log_event("parallel.serial_fallback", unit=unit, reason="start-method")
            return self._serial(fn, items)

        chunks = self._chunks(items)
        results: List[Optional[List[R]]] = [None] * len(chunks)
        degraded: List[int] = []
        context = multiprocessing.get_context(method)

        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            mp_context=context,
            initializer=_pool_init,
            initargs=(self._state,),
        ) as pool:
            pending = {}
            for index, chunk in enumerate(chunks):
                try:
                    if self.fault_injector is not None:
                        self.fault_injector.check(unit=f"{unit}[chunk={index}]")
                    pending[index] = pool.submit(_run_chunk, fn, chunk)
                except (KeyboardInterrupt, SystemExit):
                    raise
                # reprolint: disable=R006 -- routed to resilience.events: _record_failure emits a parallel.degraded log_event
                except Exception as exc:
                    self._record_failure(index, len(chunk), exc, unit)
                    degraded.append(index)
            for index in sorted(pending):
                try:
                    results[index] = pending[index].result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                # reprolint: disable=R006 -- routed to resilience.events: _record_failure emits a parallel.degraded log_event
                except (BrokenProcessPool, Exception) as exc:
                    self._record_failure(index, len(chunks[index]), exc, unit)
                    degraded.append(index)
                else:
                    # Liveness beacon: supervisors subscribe to this to
                    # heartbeat a pool that is making progress (see
                    # repro.runtime.supervisor.HeartbeatMonitor).
                    log_event(
                        "parallel.chunk_done",
                        unit=unit,
                        chunk=index,
                        items=len(chunks[index]),
                    )

        if degraded:
            _install_state(self._state)
            for index in sorted(degraded):
                results[index] = self._recompute(fn, chunks[index], unit, index)

        out: List[R] = []
        for chunk_result in results:
            assert chunk_result is not None
            out.extend(chunk_result)
        return out
