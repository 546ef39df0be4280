"""Outside-in per-layer tracing of the ``repro`` package.

:class:`Tracer` replaces every ``repro.*`` module-global binding and
class attribute of the entry points in :data:`ENTRY_POINTS` with a
wrapper defined here, and puts the originals back on :meth:`uninstall`.
No program module is edited.  Each wrapper records a :class:`Span` in
memory: entry point, layer group, start, end, parent span, operation id
and the counts its hook reads from the call.  Generators are timed
across their resumptions; the service's async request handler is timed
as a detached span, because other spans run while it awaits.

Layer times are *self* times (a span minus its direct children), so
they partition an operation's time without double counting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Counts = Dict[str, float]


@dataclass
class Span:
    """One timed call of an entry point (or one benchmark operation)."""

    sid: int
    name: str
    group: str
    start: float
    parent: Optional[int]
    op: Optional[str]
    end: float = 0.0
    child_s: float = 0.0
    counts: Counts = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_row(self) -> List[Any]:
        return [self.sid, self.name, self.group, self.op, self.parent,
                round(self.start, 7), round(self.end, 7), self.counts]


# ----------------------------------------------------------------------
# Count hooks: (args, kwargs, result, pre) -> counts
# ----------------------------------------------------------------------
def _one(*_: Any) -> Counts:
    return {"calls": 1}


def _pre_none(args: tuple, kwargs: dict) -> Any:
    return None


def _events(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    return {"events": result.num_events}


def _two_snapshots(*_: Any) -> Counts:
    return {"snapshots": 2}


def _msbfs_rows(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    return {"sources": int(result.shape[0])}


def _pairs(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    return {"pairs": len(result)}


def _no_counts(*_: Any) -> Counts:
    return {}


def _topk_result(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    budget = result.budget
    return {
        "pairs": len(result.pairs),
        "sssp": budget.spent,
        "rows_needed": 2 * len(result.candidates),
        "rows_fresh": budget.by_phase().get("topk", 0),
    }


def _budget_before(args: tuple, kwargs: dict) -> Any:
    budget = kwargs["budget"] if "budget" in kwargs else args[4]
    return budget, budget.spent


def _select_sssp(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    budget, before = pre
    return {"sssp": budget.spent - before}


def _windows_before(args: tuple, kwargs: dict) -> Any:
    return len(args[0].windows)


def _windows_closed(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    new = args[0].windows[pre:]
    return {
        "windows": len(new),
        "fallback": sum(1 for w in new if w.engine.endswith("fallback")),
    }


def _bytes_written(args: tuple, kwargs: dict, result: Any, pre: Any) -> Counts:
    return {"bytes": result.stat().st_size}


def _answer_group(args: tuple, kwargs: dict) -> str:
    verb = args[1] if len(args) > 1 else kwargs["verb"]
    return f"service.{verb}"


def _ticket_op(args: tuple, kwargs: dict) -> Optional[str]:
    return str(args[1].request.request_id)


def _line_op(args: tuple, kwargs: dict) -> Optional[str]:
    try:
        payload = json.loads(args[1])
    except ValueError:
        return None
    return str(payload.get("id")) if isinstance(payload, dict) else None


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped entry point: ``module:qualname`` in layer ``group``.

    ``kind`` is ``func``, ``gen`` (timed per resumption) or ``async``
    (a detached span).  ``group_of`` picks the group from the call's
    arguments; ``op_of`` names the operation the call serves.
    """

    module: str
    qualname: str
    group: str
    post: Callable[..., Counts] = _no_counts
    pre: Callable[[tuple, dict], Any] = _pre_none
    kind: str = "func"
    group_of: Optional[Callable[[tuple, dict], str]] = None
    op_of: Optional[Callable[[tuple, dict], Optional[str]]] = None


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.datasets.io", "read_edge_stream", "datasets.read",
               post=_events),
    EntryPoint("repro.graph.dynamic", "TemporalGraph.snapshot_pair",
               "graph.snapshot", post=_two_snapshots),
    EntryPoint("repro.runtime.engine", "StreamRuntime.window_snapshots",
               "graph.snapshot", post=_two_snapshots),
    EntryPoint("repro.graph.validation", "check_snapshot_pair",
               "graph.check", post=_one),
    EntryPoint("repro.graph.graph", "Graph.is_weighted", "graph.check",
               post=_one),
    EntryPoint("repro.graph.incremental", "SnapshotDelta.from_graphs",
               "graph.delta", post=_one),
    EntryPoint("repro.graph.msbfs", "msbfs_levels", "graph.msbfs",
               post=_msbfs_rows),
    EntryPoint("repro.graph.msbfs", "iter_msbfs_rows", "graph.msbfs",
               kind="gen"),
    EntryPoint("repro.graph.csr", "bfs_levels", "graph.bfs", post=_one),
    EntryPoint("repro.graph.prune", "bounded_bfs_levels", "graph.bfs",
               post=_one),
    EntryPoint("repro.graph.incremental", "repair_levels", "graph.repair",
               post=_one),
    EntryPoint("repro.graph.traversal", "single_source_distances",
               "graph.dict_sssp", post=_one),
    EntryPoint("repro.core.fastpairs", "csr_delta_histogram", "core.collect"),
    EntryPoint("repro.core.fastpairs", "csr_pairs_at_threshold",
               "core.collect", post=_pairs),
    EntryPoint("repro.core.fastpairs", "csr_top_k_rows", "core.collect",
               post=_pairs),
    EntryPoint("repro.core.pairs", "delta_histogram", "core.collect"),
    EntryPoint("repro.core.pairs", "converging_pairs_at_threshold",
               "core.collect", post=_pairs),
    EntryPoint("repro.core.pairs", "top_k_converging_pairs", "core.collect",
               post=_pairs),
    EntryPoint("repro.core.algorithm", "find_top_k_converging_pairs",
               "core.score", post=_topk_result),
    EntryPoint("repro.runtime.engine", "StreamRuntime.run", "runtime.advance",
               pre=_windows_before, post=_windows_closed),
    EntryPoint("repro.runtime.wal", "WriteAheadLog.append", "runtime.wal",
               post=_one),
    EntryPoint("repro.resilience.checkpoint", "CheckpointStore.put",
               "runtime.checkpoint", post=_bytes_written),
    EntryPoint("repro.service.answers", "compute_answer", "service.answer",
               group_of=_answer_group),
    EntryPoint("repro.service.server", "ConvergenceService._handle_ticket",
               "service.work", op_of=_ticket_op),
    EntryPoint("repro.service.server", "ConvergenceService.handle_line",
               "service.request", kind="async", op_of=_line_op),
)


#: Modules the traced paths import lazily: loaded before any wrapping,
#: so that no module binds a wrapper that uninstall would not see.
PRELOAD = (
    "repro.core.algorithm", "repro.core.fastpairs", "repro.core.pairs",
    "repro.datasets.io", "repro.graph.incremental", "repro.graph.msbfs",
    "repro.graph.prune", "repro.parallel", "repro.runtime",
    "repro.selection", "repro.service",
)


def preload() -> None:
    for name in PRELOAD:
        __import__(name)


def selector_entry_points() -> List[EntryPoint]:
    """``select`` of every selector class, wrapped where it is defined."""
    from repro.selection.base import CandidateSelector

    seen = []
    pending = [CandidateSelector]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if (
            "select" in vars(cls) and not inspect.isabstract(cls)
            and cls.__module__.startswith("repro.")
        ):
            seen.append(cls)
    return [
        EntryPoint(cls.__module__, f"{cls.__qualname__}.select",
                   "selection", pre=_budget_before, post=_select_sssp)
        for cls in sorted(seen, key=lambda c: (c.__module__, c.__qualname__))
    ]


class Tracer:
    """Span recorder plus the install/uninstall of entry-point wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, name: str, group: str, op: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(len(self.spans), name, group, time.perf_counter(),
                    parent.sid if parent is not None else None, op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if not self._stack or self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def detached(self, name: str, group: str, op: Optional[str],
                 start: float, end: float) -> Span:
        """Record a span that is not nested in the current stack."""
        span = Span(len(self.spans), name, group, start, None, op, end=end)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, point: EntryPoint, func: Callable) -> Callable:
        tracer = self
        name = f"{point.module}.{point.qualname}"

        def group_for(args: tuple, kwargs: dict) -> str:
            if point.group_of is not None:
                return point.group_of(args, kwargs)
            return point.group

        def op_for(args: tuple, kwargs: dict) -> Optional[str]:
            return point.op_of(args, kwargs) if point.op_of else None

        if point.kind == "gen":
            @functools.wraps(func)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = func(*args, **kwargs)
                group = group_for(args, kwargs)
                while True:
                    span = tracer.open(name, group)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    span.counts = {"sources": 1}
                    yield item
            return gen_wrapper

        if point.kind == "async":
            @functools.wraps(func)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer.detached(name, group_for(args, kwargs),
                                    op_for(args, kwargs), start,
                                    time.perf_counter())
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            pre = point.pre(args, kwargs)
            span = tracer.open(name, group_for(args, kwargs),
                               op_for(args, kwargs))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            span.counts = point.post(args, kwargs, result, pre)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every entry point and every selector's ``select``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        preload()
        try:
            for point in list(ENTRY_POINTS) + selector_entry_points():
                self._install_one(point)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, point: EntryPoint) -> None:
        __import__(point.module)
        module = sys.modules[point.module]
        owner_name, _, attr = point.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(point, raw.__func__))
            else:
                wrapped = self._wrap(point, raw)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(point, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_bindings(self) -> List[Tuple[Any, str, Any]]:
        """The ``(owner, attribute, original)`` triples now wrapped."""
        return list(self._patches)
