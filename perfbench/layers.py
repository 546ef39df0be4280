"""Per-layer metrics from a traced run's spans.

Every ``*_s`` metric is the summed *self* time of one layer's spans,
normalised with the probes around each span; counts are read at the
same boundaries.  See the layer table in ``README.md``.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence

from tracer import Span

#: Self-time metrics: metric name -> span group.
TIME_METRICS = {
    "datasets.read_s": "datasets.read",
    "graph.snapshot_s": "graph.snapshot",
    "graph.check_s": "graph.check",
    "graph.delta_s": "graph.delta",
    "graph.msbfs_s": "graph.msbfs",
    "graph.bfs_s": "graph.bfs",
    "graph.repair_s": "graph.repair",
    "graph.dict_sssp_s": "graph.dict_sssp",
    "core.collect_s": "core.collect",
    "core.score_s": "core.score",
    "selection.select_s": "selection",
    "runtime.advance_s": "runtime.advance",
    "runtime.wal_append_s": "runtime.wal",
    "runtime.checkpoint_s": "runtime.checkpoint",
    "service.node_s": "service.node",
    "service.topk_s": "service.topk",
}

#: Count metrics: metric name -> (span group, count key).
COUNT_METRICS = {
    "datasets.events": ("datasets.read", "events"),
    "graph.snapshots": ("graph.snapshot", "snapshots"),
    "graph.check_calls": ("graph.check", "calls"),
    "graph.deltas": ("graph.delta", "calls"),
    "graph.msbfs_sources": ("graph.msbfs", "sources"),
    "graph.bfs_calls": ("graph.bfs", "calls"),
    "graph.repair_calls": ("graph.repair", "calls"),
    "graph.dict_sssp_calls": ("graph.dict_sssp", "calls"),
    "core.sssp_charged": ("core.score", "sssp"),
    "selection.sssp": ("selection", "sssp"),
    "runtime.windows": ("runtime.advance", "windows"),
    "runtime.fallback_windows": ("runtime.advance", "fallback"),
    "runtime.wal_appends": ("runtime.wal", "calls"),
    "runtime.checkpoint_bytes": ("runtime.checkpoint", "bytes"),
}

UNITS = {
    "core.pairs_out": "count",
    "core.rows_reused_frac": "frac",
    "service.queue_wait_ms": "ms",
    "service.busy_frac": "frac",
    "service.cache_hit_frac": "frac",
    "service.coalesced": "count",
    "service.rejected": "count",
    "bench.probe_ms": "ms",
    "bench.wall_latency_ms": "ms",
    "bench.wall_setup_s": "s",
    "bench.loadgen_lag_ms": "ms",
    "bench.trace_overhead_frac": "frac",
    "bench.trace_unattributed_frac": "frac",
}
UNITS.update({name: "s" for name in TIME_METRICS})
UNITS.update({name: "count" for name in COUNT_METRICS})


Scale = Callable[[float, float], float]


def layer_metrics(spans: Sequence[Span], scale: Scale) -> Dict[str, float]:
    """Time and count metrics of the program's layers (not ``bench.*``)."""
    by_id = {span.sid: span for span in spans}
    out: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in COUNT_METRICS})
    time_of = {group: name for name, group in TIME_METRICS.items()}
    counts_of: Dict[str, List[tuple]] = {}
    for name, (group, key) in COUNT_METRICS.items():
        counts_of.setdefault(group, []).append((name, key))
    pairs_out = 0
    rows_needed = rows_fresh = 0
    for span in spans:
        metric = time_of.get(span.group)
        if metric is not None:
            out[metric] += span.self_s * scale(span.start, span.end)
        for name, key in counts_of.get(span.group, ()):
            out[name] += span.counts.get(key, 0)
        if span.group.startswith("core.") and "pairs" in span.counts:
            if not _inside(span, by_id, "core."):
                pairs_out += span.counts["pairs"]
        rows_needed += span.counts.get("rows_needed", 0)
        rows_fresh += span.counts.get("rows_fresh", 0)
    out["core.pairs_out"] = pairs_out
    out["core.rows_reused_frac"] = (
        (rows_needed - rows_fresh) / rows_needed if rows_needed else 0.0
    )
    return out


def _inside(span: Span, by_id: Dict[int, Span], prefix: str) -> bool:
    parent = span.parent
    while parent is not None:
        outer = by_id[parent]
        if outer.group.startswith(prefix):
            return True
        parent = outer.parent
    return False


def unattributed_frac(spans: Sequence[Span]) -> float:
    """Share of batch-operation time that no named layer's span covers."""
    total = own = 0.0
    for span in spans:
        if span.group == "bench.op" and span.name == "op":
            total += span.duration
            own += span.self_s
    return own / total if total else 0.0


def service_metrics(
    spans: Sequence[Span], scale: Scale, phase_wall_s: float,
    counters: Dict[str, int],
) -> Dict[str, float]:
    """Queue wait, busy share, cache and admission counters of ``serve``.

    A request's queue wait runs from ``handle_line`` to the worker's
    ``_handle_ticket``; the busy share is the worker's time over the phase.
    """
    handled: Dict[str, Span] = {}
    started: Dict[str, Span] = {}
    for span in spans:
        if span.group == "service.request" and span.op is not None:
            handled[span.op] = span
        elif span.group == "service.work" and span.op is not None:
            started[span.op] = span
    waits = [
        (started[op].start - span.start) * 1000.0
        * scale(span.start, started[op].start)
        for op, span in handled.items() if op in started
    ]
    busy = sum(span.duration for span in started.values())
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    rejected = sum(
        counters.get(k, 0) for k in (
            "rejected_bad_request", "rejected_over_capacity",
            "rejected_over_deadline", "rejected_draining", "shed",
        )
    )
    return {
        "service.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "service.busy_frac": busy / phase_wall_s if phase_wall_s else 0.0,
        "service.cache_hit_frac": (
            counters.get("cache_hits", 0) / lookups if lookups else 0.0
        ),
        "service.coalesced": counters.get("coalesced", 0),
        "service.rejected": rejected,
    }


def empty_service_metrics() -> Dict[str, float]:
    return {
        "service.queue_wait_ms": 0.0,
        "service.busy_frac": 0.0,
        "service.cache_hit_frac": 0.0,
        "service.coalesced": 0,
        "service.rejected": 0,
    }
