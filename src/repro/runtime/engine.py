"""The crash-safe streaming runtime: WAL-ahead snapshot advancement.

:class:`StreamRuntime` turns the library's batch pipeline into an
always-on service loop over a sanitized edge stream:

1. events are consumed in fixed-size batches, each batch durably
   appended to the :class:`~repro.runtime.wal.WriteAheadLog` *before*
   it touches in-memory state (write-ahead: an acknowledged batch can
   always be replayed, an unacknowledged one is re-read from the
   source);
2. every ``checkpoint_every`` batches close a **window**: the top-k
   converging pairs between the snapshot at the window's start and its
   end are computed — on the ``csr`` engine while the
   :class:`~repro.runtime.breaker.CircuitBreaker` is closed, on the
   repaired pair while it is open (weighted streams take Dijkstra rows
   from the dict engine on both paths);
3. each closed window is followed by a checkpoint
   (:class:`~repro.resilience.checkpoint.CheckpointStore`) and WAL
   compaction, so recovery cost stays bounded.

A window costs what its events cost: the newest closed window's
snapshots are kept, its ``G_t2`` is the next window's ``G_t1``, the
next ``G_t2`` is a copy of it extended by the window's events, and the
next window's :class:`~repro.graph.pair.SnapshotPair` takes the kept
pair's ``G_t2`` CSR view as its ``G_t1`` view.  A checkpoint record
holds a running SHA-256 of the applied events, not the events
themselves, and only the windows closed since the previous record:
records are kept, recovery chains their windows, and the first
checkpoint after a reopen folds them into one.

**Recovery is the constructor**: opening a runtime on an existing
``--wal-dir`` loads the newest usable checkpoint and replays the WAL
suffix through the same window code path, which makes a killed-and-
restarted run produce *byte-identical* output to an uninterrupted one —
every window result is a pure function of (event prefix, config,
checkpointed breaker state), and all of those are restored exactly.

Failure handling is layered: window computation runs under a
:class:`~repro.runtime.supervisor.Supervisor` (bounded lifetime
restarts, then escalate); failed direct attempts feed the breaker
(degrading to the fallback, probing back); resource-budget breaches
(:class:`~repro.runtime.guards.ResourceGuard`) checkpoint-and-shed
instead of dying to the OOM killer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.pairs import ConvergingPair, top_k_converging_pairs
from repro.graph.dynamic import TemporalGraph, apply_events
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.graph.validation import (
    GraphValidationError,
    check_snapshot_pair,
    repair_snapshot_pair,
)
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.events import log_event
from repro.resilience.faults import FaultInjector, InjectedFault
from repro.resilience.policy import RetryPolicy
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.guards import ResourceGuard
from repro.runtime.supervisor import Supervisor
from repro.runtime.wal import ChaosHook, WriteAheadLog
from repro.selection import get_selector

PathLike = Union[str, Path]

RUNTIME_SCHEMA_VERSION = 3

#: One event as stored in WAL payloads: ``[time, u, v, weight]``.
EventRow = List[Any]

#: An event row's canonical JSON, one line of the ``events_sha256`` digest.
_ROW_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: Called after every window close: ``(state_version, window)``.  The
#: always-on service registers one to invalidate its version-keyed
#: result cache exactly when the runtime advances (docs/service.md).
AdvanceCallback = Callable[[int, "WindowResult"], None]


class RuntimeRecoveryError(RuntimeError):
    """The WAL/checkpoint pair cannot reconstruct a consistent state."""


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that *defines* a streaming run's results.

    Execution knobs that do not affect outputs (restart budget, worker
    count, fsync) live on :class:`StreamRuntime` itself — config here is
    exactly the part a recovered run must share with the original for
    byte-identical output.
    """

    k: int = 10
    batch_size: int = 8
    checkpoint_every: int = 4
    selector: Optional[str] = None
    m: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.selector is not None and self.m < 1:
            raise ValueError(
                f"budgeted mode needs m >= 1 candidates, got {self.m}"
            )

    @property
    def window_events(self) -> int:
        """Events per full window (``batch_size * checkpoint_every``)."""
        return self.batch_size * self.checkpoint_every


@dataclass(frozen=True)
class WindowResult:
    """One closed window: its extent, engine, and ranked pairs."""

    index: int
    start: int
    end: int
    engine: str
    pairs: Tuple[ConvergingPair, ...]

    def to_payload(self) -> dict:
        """JSON-stable form for checkpoints."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "engine": self.engine,
            "pairs": [[p.u, p.v, p.d1, p.d2] for p in self.pairs],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WindowResult":
        """Rebuild from a checkpoint payload row."""
        return cls(
            index=int(payload["index"]),
            start=int(payload["start"]),
            end=int(payload["end"]),
            engine=str(payload["engine"]),
            pairs=tuple(
                ConvergingPair(row[0], row[1], row[2], row[3])
                for row in payload["pairs"]
            ),
        )


@dataclass
class RuntimeReport:
    """What one :meth:`StreamRuntime.run` call produced.

    :meth:`render` is deliberately a pure function of the run's
    *results* — window extents, engines, pairs, totals — and never of
    how the run got there (recovery, restarts, torn tails all surface
    via ``log_event`` only), so a recovered run's output is
    byte-identical to an uninterrupted one.
    """

    windows: List[WindowResult] = field(default_factory=list)
    consumed: int = 0
    status: str = "complete"

    def render(self, limit: int = 5) -> str:
        """Deterministic human-readable summary."""
        lines: List[str] = []
        for window in self.windows:
            lines.append(
                f"window {window.index}: events [{window.start}, "
                f"{window.end}) engine={window.engine} "
                f"pairs={len(window.pairs)}"
            )
            for p in window.pairs[:limit]:
                lines.append(
                    f"  {p.u!s} {p.v!s} d1={p.d1:g} d2={p.d2:g} "
                    f"delta={p.delta:g}"
                )
            if len(window.pairs) > limit:
                lines.append(f"  ... {len(window.pairs) - limit} more")
        lines.append(
            f"advanced {self.consumed} events over {len(self.windows)} "
            f"window(s); status={self.status}"
        )
        return "\n".join(lines)


def _materialise(rows: Sequence[EventRow]) -> Graph:
    """The graph aggregating ``rows`` (same semantics as TemporalGraph)."""
    return apply_events(Graph(), rows)


def _window_pair(
    g1: Graph, g2: Graph, previous: Optional[SnapshotPair]
) -> SnapshotPair:
    """``(g1, g2)`` frozen, on ``previous.csr2`` when ``previous`` (the
    kept window's pair) ends at ``g1``."""
    if previous is None:
        return SnapshotPair.from_graphs(g1, g2)
    return SnapshotPair.after(previous, g2)


@dataclass
class _KeptWindow:
    """The newest closed window's snapshots and the pair it was computed on.

    Shared, never mutated: the next window's ``G_t2`` is built on a copy.
    ``pair`` is ``None`` only for a window reopened by recovery, until
    its first read.
    """

    index: int
    g1: Graph
    g2: Graph
    pair: Optional[SnapshotPair] = None


class StreamRuntime:
    """Crash-safe advancement of snapshot state over an edge stream.

    Parameters
    ----------
    source:
        The sanitized stream to tail — a :class:`TemporalGraph` (its
        events in time order are the arrival order).
    directory:
        The durable root (``--wal-dir``): holds ``wal.log`` plus a
        ``checkpoints/`` store.  Opening a non-empty directory *is*
        recovery.
    config:
        The result-defining knobs (see :class:`RuntimeConfig`).
    max_restarts / fsync:
        Execution-only knobs: supervisor budget, WAL durability.
    guard:
        Optional :class:`~repro.runtime.guards.ResourceGuard`; a breach
        checkpoints and sheds (``status="shed:<kind>"``).
    breaker:
        Optional pre-built breaker (defaults to one seeded from
        ``config.seed``); its state is checkpointed and restored.
    chaos:
        Injection-point hook threaded into the WAL and the checkpoint
        sequence (``wal.append.mid``, ``checkpoint.mid``,
        ``repair.mid``); the chaos suite SIGKILLs there.
    repair_injector / window_injector:
        Deterministic fault hooks: the first fails direct attempts
        (exercising the breaker), the second fails whole window
        computations (exercising the supervisor).
    on_advance:
        Optional :data:`AdvanceCallback` invoked after every window
        close with ``(state_version, window)`` — including windows
        re-closed during WAL-suffix replay, so a subscriber attached
        before recovery observes the same sequence an uninterrupted
        run produces.

    The :attr:`state_version` counter increments by exactly one per
    closed window, is persisted in every checkpoint, and is restored by
    recovery — so the version at any point of a recovered run equals
    the version an uninterrupted run carries at the same stream
    position (pinned by the chaos suite).
    """

    def __init__(
        self,
        source: TemporalGraph,
        directory: PathLike,
        config: RuntimeConfig,
        *,
        max_restarts: int = 3,
        fsync: bool = True,
        guard: Optional[ResourceGuard] = None,
        breaker: Optional[CircuitBreaker] = None,
        supervisor_backoff: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosHook] = None,
        repair_injector: Optional[FaultInjector] = None,
        window_injector: Optional[FaultInjector] = None,
        on_advance: Optional[AdvanceCallback] = None,
    ) -> None:
        self.directory = Path(directory)
        self.config = config
        self._chaos = chaos if chaos is not None else _no_chaos
        self._repair_injector = repair_injector
        self._window_injector = window_injector
        self.on_advance = on_advance
        self.guard = guard
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            seed=config.seed
        )
        self.supervisor = Supervisor(
            max_restarts=max_restarts, backoff=supervisor_backoff
        )
        self.wal = WriteAheadLog(
            self.directory, fsync=fsync, chaos=self._chaos
        )
        self.store = CheckpointStore(self.directory / "checkpoints")
        self._source_rows: List[EventRow] = list(map(list, source.events()))
        self.consumed = 0
        self._events_digest = hashlib.sha256()
        self.windows: List[WindowResult] = []
        self._kept: Optional[_KeptWindow] = None
        self.state_version = 0
        self._window_start = 0
        self._applied_seq = 0
        self._checkpoint_seq: Optional[int] = None
        # The newest record's first window, how many windows the records
        # written so far hold, and the records recovery read that the
        # next checkpoint folds into one.
        self._record_from = 0
        self._recorded = 0
        self._folded: List[int] = []
        self.recovered_from_seq: Optional[int] = None
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _state_key(self, seq: int) -> List[Any]:
        return ["runtime", "state", seq]

    def _recover(self) -> None:
        stored = sorted(
            (
                (int(key[2]), value) for key, value in self.store.items()
                if isinstance(key, list) and len(key) == 3
                and key[:2] == ["runtime", "state"]
            ),
            key=lambda item: item[0],
        )
        seqs = [seq for seq, _ in stored]
        if not seqs or seqs[-1] < self.wal.compacted_upto:
            # A record older than the compaction point lost its WAL
            # suffix: it can still hold windows, never the counters.
            if self.wal.compacted_upto != 0:
                raise RuntimeRecoveryError(
                    f"{self.directory}: the WAL was compacted up to "
                    f"sequence {self.wal.compacted_upto} but no usable "
                    "checkpoint at or past it exists — state cannot be "
                    "reconstructed"
                )
        else:
            records = [self._state_record(seq, v) for seq, v in stored]
            best, payload = seqs[-1], records[-1]
            self.consumed = int(payload["consumed"])
            prefix = self._source_rows[:self.consumed]
            self._digest_rows(prefix)
            if payload["schema"] == 1:
                # Schema 1 stored every applied event; the next
                # checkpoint is written at the current schema.
                matches = payload["events"] == prefix
            else:
                matches = (
                    payload["events_sha256"]
                    == self._events_digest.hexdigest()
                )
            if not matches:
                raise RuntimeRecoveryError(
                    f"{self.directory}: checkpoint at sequence {best} does "
                    "not match the source stream — the input changed"
                )
            self.windows = self._chained_windows(seqs, records)
            self._window_start = (
                self.windows[-1].end if self.windows else 0
            )
            # Checkpoints written before the version counter existed
            # lack the field; the counter always equals the number of
            # closed windows, so the fallback is exact, not a guess.
            self.state_version = int(
                payload.get("version", len(self.windows))
            )
            self._refuse_hop_count_windows()
            try:
                self.breaker.restore(payload["breaker"])
            except ValueError as exc:
                raise RuntimeRecoveryError(
                    f"{self.directory}: checkpoint at sequence {best} "
                    f"holds a breaker this run cannot restore: {exc}"
                ) from exc
            self._applied_seq = best
            self._checkpoint_seq = best
            self._record_from = int(payload.get("windows_before", 0))
            self._recorded = len(self.windows)
            if len(seqs) > 1:
                self._folded = seqs
            self.recovered_from_seq = best
            log_event(
                "runtime.recovered", seq=best, consumed=self.consumed,
                windows=len(self.windows),
            )
        # Replay the WAL suffix through the normal apply path: batches
        # the dead process acknowledged but had not checkpointed.
        replayed = self.wal.replay(after_seq=self._applied_seq)
        for record in replayed:
            self._verify_replayed(record.events)
            self._apply_batch(record.events, record.seq)
        if replayed:
            log_event(
                "runtime.replayed", batches=len(replayed),
                upto=self._applied_seq,
            )

    def _state_record(self, seq: int, payload: Any) -> dict:
        """The state record ``payload`` at ``seq``, of a schema this
        runtime reads."""
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema not in (1, 2, RUNTIME_SCHEMA_VERSION):
            raise RuntimeRecoveryError(
                f"{self.directory}: checkpoint at sequence {seq} is "
                "unreadable or schema-mismatched"
            )
        return payload

    def _chained_windows(
        self, seqs: List[int], records: List[dict]
    ) -> List[WindowResult]:
        """The closed windows the state records hold, in sequence order.

        The chain starts at the newest record that holds every window
        before it: a schema-1/2 record (its full list still reopens) or
        one with no windows before it.  Each later record holds the
        windows closed after the first ``windows_before``.  It may
        repeat some the record before it holds (a checkpoint whose
        write landed but raised is written again from the same first
        window); closed windows never change, so the later copy
        replaces them.  A record missing from the chain (deleted, or
        dropped as corrupt) leaves a gap, which is refused rather than
        reopened with fewer windows.
        """
        base = max(
            (i for i, record in enumerate(records)
             if record.get("windows_before", 0) == 0),
            default=0,
        )
        rows: List[dict] = []
        for seq, record in zip(seqs[base:], records[base:]):
            before = record.get("windows_before", 0)
            if before > len(rows):
                raise RuntimeRecoveryError(
                    f"{self.directory}: checkpoint at sequence {seq} "
                    f"follows {before} window(s), but the records before "
                    f"it hold {len(rows)} — a checkpoint record is missing"
                )
            del rows[before:]
            rows.extend(record["windows"])
        return [WindowResult.from_payload(row) for row in rows]

    def _refuse_hop_count_windows(self) -> None:
        """Refuse checkpointed exact windows that counted hops on weights.

        Before weighted windows ran the dict engine, a weighted stream's
        exact windows were computed in hop counts under the labels
        ``incremental``/``csr-fallback``; ranked beside the Dijkstra
        windows that follow, they would mix two units.  Weightedness is
        decided as :meth:`_direct_pairs` decides it, on the window's
        snapshots, and only for windows whose event prefix holds a
        positive non-unit weight (one scan for unweighted streams).
        """
        first = next(
            (i for i, r in enumerate(self._source_rows) if 0 < r[3] != 1),
            None,
        )
        if first is None:
            return
        for window in self.windows:
            hops = window.engine in ("incremental", "csr-fallback")
            if not hops or window.end <= first:
                continue
            g1, g2 = self.window_snapshots(window.index)
            if g1.is_weighted() or g2.is_weighted():
                raise RuntimeRecoveryError(
                    f"{self.directory}: window {window.index} of this "
                    f"weighted stream holds hop counts (engine="
                    f"{window.engine}), written before weighted windows "
                    "used the dict engine; advance the stream into a "
                    "fresh --wal-dir"
                )

    def _verify_replayed(self, batch: List[EventRow]) -> None:
        """A WAL batch must match the source at the current position.

        The WAL stores *accepted* events; if the source file changed
        under the runtime, replaying would silently fork history.
        """
        expected = self._source_rows[
            self.consumed:self.consumed + len(batch)
        ]
        if [list(row) for row in batch] != [list(r) for r in expected]:
            raise RuntimeRecoveryError(
                f"{self.directory}: WAL batch at event offset "
                f"{self.consumed} does not match the source stream — "
                "the input changed since the log was written"
            )

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------
    def run(self, max_batches: Optional[int] = None) -> RuntimeReport:
        """Advance until the stream is drained (or shed/paused).

        Returns a :class:`RuntimeReport` whose rendering is
        byte-identical across kill/recover cycles.  ``max_batches``
        bounds how many *new* batches this call ingests
        (``status="paused"`` when the bound stops the run early).
        """
        total = len(self._source_rows)
        status = "complete"
        batches_done = 0
        while self.consumed < total:
            if max_batches is not None and batches_done >= max_batches:
                status = "paused"
                break
            if self.guard is not None:
                breached = self.guard.check()
                if breached is not None:
                    self._checkpoint()
                    status = f"shed:{breached}"
                    break
            batch = self._source_rows[
                self.consumed:self.consumed + self.config.batch_size
            ]
            seq = self.wal.append([list(row) for row in batch])
            self._apply_batch(batch, seq)
            batches_done += 1
        else:
            # Drained: close the final (possibly partial) window and
            # leave a checkpoint at the head so a re-run is a no-op.
            if self._window_start < self.consumed:
                self._close_window(end=self.consumed)
                self._checkpoint()
            elif self._checkpoint_seq != self._applied_seq:
                self._checkpoint()
        report = RuntimeReport(
            windows=list(self.windows),
            consumed=self.consumed,
            status=status,
        )
        log_event(
            "runtime.run_finished", status=status,
            consumed=self.consumed, windows=len(self.windows),
        )
        return report

    def _apply_batch(self, batch: Sequence[EventRow], seq: int) -> None:
        # ``batch`` equals the source rows here (a replayed one was
        # verified against them); the digest is taken over the source.
        self._digest_rows(
            self._source_rows[self.consumed:self.consumed + len(batch)]
        )
        self.consumed += len(batch)
        self._applied_seq = seq
        while self.consumed - self._window_start >= self.config.window_events:
            end = self._window_start + self.config.window_events
            self._close_window(end=end)
            self._checkpoint()

    # ------------------------------------------------------------------
    # Query-service surface
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist the current state if anything changed since the last
        checkpoint.

        Used by the query service's drain and shed paths: the WAL is
        already ahead of every applied batch, so this only exists to
        bound the next recovery's replay, never for correctness.
        """
        if self._checkpoint_seq != self._applied_seq:
            self._checkpoint()

    def latest_window(self) -> Optional[WindowResult]:
        """The newest closed window, or ``None`` before the first close."""
        return self.windows[-1] if self.windows else None

    def window_snapshots(self, index: int) -> Tuple[Graph, Graph]:
        """The ``(G_t1, G_t2)`` snapshot pair of closed window ``index``.

        The newest window's pair is the kept one (materialised and kept
        on a miss, as after recovery); older windows are materialised
        from the applied prefix of the source.  Either way the pair is a
        pure function of checkpointed state — two runtimes at the same
        state version return equal snapshots.  The graphs are shared
        with the runtime: read them, never mutate them.
        """
        if not 0 <= index < len(self.windows):
            raise IndexError(
                f"window {index} does not exist "
                f"({len(self.windows)} closed)"
            )
        kept = self._kept
        if kept is not None and kept.index == index:
            return kept.g1, kept.g2
        window = self.windows[index]
        g1 = _materialise(self._source_rows[:window.start])
        g2 = apply_events(
            g1.copy(), self._source_rows[window.start:window.end]
        )
        if index == len(self.windows) - 1:
            self._kept = _KeptWindow(index, g1, g2)
        return g1, g2

    def latest_pair(self) -> SnapshotPair:
        """The :class:`SnapshotPair` of the newest closed window.

        Over its ``G_t1`` and its ``G_t2`` projected onto the nearest
        valid superset of ``G_t1`` (:func:`repair_snapshot_pair`; the
        kept ``G_t2`` itself when nothing needed repair).  A window
        closed in this process keeps the pair its computation ran on; a
        window reopened by recovery builds it on its first read.  Every
        read at one state version shares one pair; ``IndexError`` before
        the first window closes.
        """
        index = len(self.windows) - 1
        if index < 0:
            raise IndexError("no window has closed yet")
        kept = self._kept
        if kept is not None and kept.index == index and kept.pair is not None:
            return kept.pair
        g1, g2 = self.window_snapshots(index)
        repaired, repair = repair_snapshot_pair(g1, g2)
        pair = SnapshotPair.from_graphs(g1, g2 if repair.clean else repaired)
        self._kept = _KeptWindow(index, g1, g2, pair)
        return pair

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def _close_window(self, end: int) -> None:
        index = len(self.windows)
        start = self._window_start
        kept = self._kept
        previous: Optional[SnapshotPair] = None
        if kept is not None and self.windows[kept.index].end == start:
            g1 = kept.g2
            if kept.pair is not None and kept.pair.g2 is g1:
                previous = kept.pair  # not a repaired copy of G_t2
        else:
            g1 = _materialise(self._source_rows[:start])
        g2 = apply_events(g1.copy(), self._source_rows[start:end])
        # The breaker is consulted exactly once per window, outside the
        # supervised attempt, so restarts cannot skew its schedule.
        try_direct = self.breaker.allow()
        pairs, engine, direct_ok, pair = self.supervisor.run(
            lambda: self._compute_window(
                index, g1, g2, try_direct, previous
            ),
            unit=f"window:{index}",
        )
        if try_direct:
            if direct_ok:
                self.breaker.record_success()
            else:
                self.breaker.record_failure()
        window = WindowResult(
            index=index, start=start, end=end,
            engine=engine, pairs=tuple(pairs),
        )
        self.windows.append(window)
        self._kept = _KeptWindow(index, g1, g2, pair)
        self._window_start = end
        self.state_version += 1
        log_event(
            "runtime.window_closed", window=index, start=start, end=end,
            engine=engine, pairs=len(pairs), version=self.state_version,
        )
        if self.on_advance is not None:
            self.on_advance(self.state_version, window)

    def _compute_window(
        self, index: int, g1: Graph, g2: Graph, try_direct: bool,
        previous: Optional[SnapshotPair],
    ) -> Tuple[List[ConvergingPair], str, bool, SnapshotPair]:
        """The window's pairs, engine label, whether the direct attempt
        succeeded, and the one :class:`SnapshotPair` they were computed
        on (over ``G_t2``, or over its repaired copy on the fallback).

        ``previous`` is the kept window's pair when its ``G_t2`` is this
        window's ``G_t1``; the new pair is built on its ``csr2``."""
        if self._window_injector is not None:
            self._window_injector.check(unit=f"window:{index}")
        if try_direct:
            try:
                if self._repair_injector is not None:
                    self._repair_injector.check(unit=f"repair:{index}")
                self._chaos("repair.mid")
                return self._direct_pairs(index, g1, g2, previous)
            except (GraphValidationError, ValueError, InjectedFault) as exc:
                # Real failures (a window violating the subgraph
                # precondition — deletions in the stream — or a pair
                # the engine rejects) and injected ones feed the
                # breaker the same way.
                log_event(
                    "runtime.repair_failed", window=index,
                    error=type(exc).__name__,
                )
        return self._fallback_pairs(index, g1, g2, previous)

    def _direct_pairs(
        self, index: int, g1: Graph, g2: Graph,
        previous: Optional[SnapshotPair],
    ) -> Tuple[List[ConvergingPair], str, bool, SnapshotPair]:
        check_snapshot_pair(g1, g2)
        pair = _window_pair(g1, g2, previous)
        if self.config.selector is None:
            engine = "dict" if pair.weighted else "csr"
            pairs = top_k_converging_pairs(
                g1, g2, self.config.k, validate=False, engine=engine,
                pair=pair,
            )
            return pairs, engine, True, pair
        if g1.num_nodes < 2:
            # No pair can have a finite G_t1 distance, and selectors
            # cannot nominate candidates from an (almost) empty graph —
            # the first window of a fresh stream is legitimately empty.
            return [], "budgeted", True, pair
        result = find_top_k_converging_pairs(
            g1, g2, k=self.config.k, m=self.config.m,
            selector=get_selector(self.config.selector),
            seed=self.config.seed + index, validate=False, pair=pair,
        )
        return result.pairs, "budgeted", True, pair

    def _fallback_pairs(
        self, index: int, g1: Graph, g2: Graph,
        previous: Optional[SnapshotPair],
    ) -> Tuple[List[ConvergingPair], str, bool, SnapshotPair]:
        """Degraded path: repair the pair, never trust the validated
        direct attempt.

        ``repair_snapshot_pair`` projects ``g2`` onto the nearest valid
        superset of ``g1`` (a no-op copy when the pair is already
        valid), so the fallback always computes on a well-formed pair —
        deterministically, whatever the stream did.  Weighted pairs run
        the dict engine here too.
        """
        g2_safe, repair = repair_snapshot_pair(g1, g2)
        if not repair.clean:
            log_event(
                "runtime.window_repaired", window=index,
                detail=repair.summary(),
            )
        pair = _window_pair(g1, g2_safe, previous)
        if self.config.selector is None:
            engine = "dict" if pair.weighted else "csr"
            pairs = top_k_converging_pairs(
                g1, g2_safe, self.config.k, validate=False, engine=engine,
                pair=pair,
            )
            return pairs, f"{engine}-fallback", False, pair
        result = find_top_k_converging_pairs(
            g1, g2_safe, k=self.config.k, m=self.config.m,
            selector=get_selector(self.config.selector),
            seed=self.config.seed + index, validate=False, pair=pair,
        )
        return result.pairs, "budgeted-fallback", False, pair

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Persist state at the currently-applied WAL sequence.

        One record per checkpoint: the counters, the breaker, and the
        windows closed since the previous record, after the number of
        windows before them.  A second checkpoint at an already-recorded
        sequence (a shed right after a window close) rewrites that
        record from the same first window.  Earlier records are kept:
        recovery chains their windows.  The first checkpoint after a
        recovery that read several records folds them: it holds every
        window, and they are deleted once it has landed, so a directory
        holds the records written since it was last opened and
        checkpointed.  The record
        lands before the WAL is compacted, so a crash in between leaves
        a checkpoint whose WAL suffix is intact.
        """
        seq = self._applied_seq
        if self._folded:
            self._record_from = 0
        elif seq != self._checkpoint_seq:
            self._record_from = self._recorded
        first = self._record_from
        payload = {
            "schema": RUNTIME_SCHEMA_VERSION,
            "seq": seq,
            "consumed": self.consumed,
            "version": self.state_version,
            "events_sha256": self._events_digest.hexdigest(),
            "windows_before": first,
            "windows": [w.to_payload() for w in self.windows[first:]],
            "breaker": self.breaker.to_payload(),
        }
        self.store.put(self._state_key(seq), payload)
        # Landed: the next record follows its windows, even if what is
        # left of this checkpoint raises.
        self._checkpoint_seq = seq
        self._recorded = len(self.windows)
        self._chaos("checkpoint.mid")
        for folded in self._folded:
            if folded != seq:
                self.store.delete(self._state_key(folded))
        self._folded = []
        self.wal.compact(seq)
        log_event("runtime.checkpoint", seq=seq, consumed=self.consumed)

    def _digest_rows(self, rows: Sequence[EventRow]) -> None:
        """Extend ``events_sha256`` by ``rows``, one canonical JSON line each."""
        self._events_digest.update(
            "".join(_ROW_JSON.encode(row) + "\n" for row in rows).encode()
        )


def _no_chaos(point: str) -> None:
    """The production chaos hook: nothing ever fires."""
