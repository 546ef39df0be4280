"""Process-pool execution layer for experiment sweeps.

One executor (:class:`~repro.parallel.executor.ParallelExecutor`) fans
independent work items across a process pool with **bit-identical
results to serial execution** at any worker count or chunk size.  Its
one driver is :func:`repro.experiments.runner.coverage_cells`, where a
whole coverage cell is the unit of work; row-level work (APSP rows,
level blocks, Algorithm 1's SSSP batches) costs less serially than a
pool bring-up and runs in the calling process.  See
``docs/parallel.md`` for the worker model and the determinism
guarantees.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    available_start_method,
    in_worker,
    worker_state,
)

__all__ = [
    "ParallelExecutor",
    "available_start_method",
    "in_worker",
    "worker_state",
]
