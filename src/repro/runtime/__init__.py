"""Crash-safe streaming runtime.

Long-running advancement of snapshot state over a sanitized edge
stream: every accepted batch is WAL-logged before it is applied
(:mod:`~repro.runtime.wal`), windows of top-k converging pairs are
closed at checkpoint boundaries (:mod:`~repro.runtime.engine`), and the
failure paths are owned by dedicated components — bounded restarts
(:mod:`~repro.runtime.supervisor`), degradation to the fallback path
(:mod:`~repro.runtime.breaker`), and soft resource budgets
(:mod:`~repro.runtime.guards`).  See ``docs/runtime.md`` for the WAL
format, the recovery procedure, and the failure-mode matrix.
"""

from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.runtime.engine import (
    AdvanceCallback,
    RuntimeConfig,
    RuntimeRecoveryError,
    RuntimeReport,
    StreamRuntime,
    WindowResult,
)
from repro.runtime.guards import ResourceGuard, peak_rss_mb
from repro.runtime.supervisor import (
    Heartbeat,
    HeartbeatMonitor,
    Supervisor,
    SupervisorGivingUp,
)
from repro.runtime.wal import WALError, WALRecord, WriteAheadLog

__all__ = [
    "AdvanceCallback",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "Heartbeat",
    "HeartbeatMonitor",
    "ResourceGuard",
    "RuntimeConfig",
    "RuntimeRecoveryError",
    "RuntimeReport",
    "StreamRuntime",
    "Supervisor",
    "SupervisorGivingUp",
    "WALError",
    "WALRecord",
    "WindowResult",
    "WriteAheadLog",
    "peak_rss_mb",
]
