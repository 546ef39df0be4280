"""Vectorised (CSR) ground-truth engine for unweighted snapshot pairs.

Level rows come in blocks of 64 sources from the multi-source BFS
(:func:`~repro.graph.msbfs.msbfs_levels`) on both snapshots of one
:class:`~repro.graph.pair.SnapshotPair`, the t2 block re-indexed onto
t1's node order.  Row ``i`` owns the pair at column ``j`` when
``j > i`` and ``j`` is reachable at t1, so every connected pair is seen
once, in ``(i, j)`` order; a block starting at source ``s`` keeps only
the columns from ``s`` on, the only ones its rows can own.  Each
collector — :func:`csr_delta_histogram`, :func:`csr_pairs_at_threshold`,
:func:`csr_top_k_pairs` — takes a few numpy operations per block.

:func:`csr_top_k_rows` is the older per-source single pass with Δ-aware
pruning (:mod:`repro.graph.prune`) over
:func:`~repro.graph.incremental.repair_levels` rows; no query path calls
it, only its benchmark.
:mod:`repro.core.pairs` dispatches here (``engine="auto"`` resolves to
``csr`` on unweighted snapshots); the equivalence tests assert that it
agrees exactly with the ``dict`` engine, pair for pair.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.incremental import SnapshotDelta, repair_levels
from repro.graph.msbfs import DEFAULT_BATCH, msbfs_levels
from repro.graph.pair import SnapshotPair
from repro.graph.prune import (
    KthTracker,
    PrunePlan,
    PruneStats,
    bounded_bfs_levels,
    source_bound,
)

#: One collected pair: ``(u, v, d1, d2)`` with ``u``'s index below ``v``'s.
Row = Tuple[object, object, int, int]
#: One block of rows: first source index, then the t1 levels and the
#: aligned t2 levels of the columns from that index on.
Block = Tuple[int, np.ndarray, np.ndarray]


def _blocks(g1: Graph, g2: Graph) -> Tuple[Sequence[object], Iterator[Block]]:
    """t1 node order plus the level blocks of every t1 source.

    Block ``(s, lv1, lv2)`` holds the rows of sources ``s .. s + b − 1``
    (``b <= 64``) at the t1 nodes ``s .. n1 − 1``: ``lv1`` on ``G_t1``
    and ``lv2`` on ``G_t2``, both ``(b, n1 − s)`` ``int32`` arrays in
    t1's node order.  Column ``c`` is node ``s + c``.
    """
    pair = SnapshotPair.from_graphs(g1, g2)
    csr1, csr2, mapping = pair.csr1, pair.csr2, pair.mapping
    if csr1 is None or csr2 is None or mapping is None:
        raise ValueError(
            "the CSR engine counts hops; weighted snapshots need the dict "
            "engine"
        )

    def blocks() -> Iterator[Block]:
        n = csr1.num_nodes
        for start in range(0, n, DEFAULT_BATCH):
            sources = np.arange(start, min(start + DEFAULT_BATCH, n))
            lv1 = msbfs_levels(csr1, sources)
            lv2 = msbfs_levels(csr2, mapping[sources])
            yield start, lv1[:, start:], lv2[:, mapping[start:]]

    return csr1.nodes, blocks()


def _owned(start: int, lv1: np.ndarray) -> np.ndarray:
    """Cells of a block whose pair its row owns: ``j > i``, reached at t1."""
    rows = np.arange(start, start + lv1.shape[0])[:, None]
    cols = np.arange(start, start + lv1.shape[1])
    return (cols > rows) & (lv1 != UNREACHED)


def _rows_at(
    nodes: Sequence[object], block: Block, hit: np.ndarray
) -> List[Row]:
    """The ``hit`` cells of a block as rows, in ``(i, j)`` order."""
    start, lv1, lv2 = block
    r, c = np.nonzero(hit)
    return [
        (nodes[i], nodes[j], d1, d2)
        for i, j, d1, d2 in zip(
            (r + start).tolist(), (c + start).tolist(),
            lv1[r, c].tolist(), lv2[r, c].tolist(),
        )
    ]


def csr_delta_histogram(g1: Graph, g2: Graph) -> Counter:
    """Exact Δ histogram over connected t1 pairs (unweighted fast path).

    Keys and counts are Python ints.  Keys enter in the order a scan of
    the rows in source order meets them (by first row, then by value),
    so the ``Counter`` iterates as the per-row engine's did.
    """
    _, blocks = _blocks(g1, g2)
    hist: Counter = Counter()
    for start, lv1, lv2 in blocks:
        own = _owned(start, lv1)
        deltas = (lv1 - lv2)[own]
        if not deltas.size:
            continue
        if deltas.min() < 0:
            raise ValueError(
                "negative distance change: G_t1 is not a subgraph of "
                "G_t2 (run check_snapshot_pair for details)"
            )
        counts = np.bincount(deltas)
        first = np.full(counts.size, lv1.shape[0])
        np.minimum.at(first, deltas, np.nonzero(own)[0])
        for d in np.lexsort((np.arange(counts.size), first)).tolist():
            if counts[d]:
                hist[d] += int(counts[d])
    return hist


def csr_pairs_at_threshold(
    g1: Graph, g2: Graph, delta_min: float
) -> List[Row]:
    """All ``(u, v, d1, d2)`` rows with ``Δ >= delta_min`` (u-index < v-index).

    Returned as raw tuples in ``(i, j)`` order;
    :mod:`repro.core.pairs` wraps them into canonical
    :class:`~repro.core.pairs.ConvergingPair` objects so every engine
    shares one construction path.
    """
    nodes, blocks = _blocks(g1, g2)
    rows: List[Row] = []
    for block in blocks:
        start, lv1, lv2 = block
        hit = _owned(start, lv1) & (lv1 - lv2 >= delta_min)
        rows.extend(_rows_at(nodes, block, hit))
    return rows


def csr_top_k_pairs(g1: Graph, g2: Graph, k: int) -> List[Row]:
    """Rows holding the exact top-k, from one pass at the running k-th Δ.

    Each block offers its Δs to a :class:`~repro.graph.prune.KthTracker`
    once, then keeps its cells at or above the tracker's threshold —
    the running k-th Δ, which never exceeds the final one.  The result
    is a superset of the exact top-k, ties at the k-th Δ included, in
    ``(i, j)`` order; the caller sorts by ``(−Δ, repr)`` and truncates,
    which yields exactly the pairs of a histogram pass plus a threshold
    pass.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nodes, blocks = _blocks(g1, g2)
    tracker = KthTracker(k)
    rows: List[Row] = []
    compact_at = max(4 * k, 256)
    for block in blocks:
        start, lv1, lv2 = block
        own = _owned(start, lv1)
        deltas = lv1 - lv2
        tracker.offer(deltas[own])
        rows.extend(
            _rows_at(nodes, block, own & (deltas >= tracker.threshold))
        )
        if len(rows) > compact_at:
            floor = tracker.threshold
            rows = [r for r in rows if r[2] - r[3] >= floor]
            compact_at = max(compact_at, 4 * len(rows))
    return rows


def csr_top_k_rows(
    g1: Graph,
    g2: Graph,
    k: int,
    *,
    incremental: bool = True,
    prune: bool = True,
    delta: Optional[SnapshotDelta] = None,
    rows1: Optional[Sequence[np.ndarray]] = None,
    stats: Optional[PruneStats] = None,
) -> List[Row]:
    """Single-pass top-k candidate rows with dynamic Δ-aware pruning.

    Returns every ``(u, v, d1, d2)`` row whose Δ was at or above the
    *running* k-th best Δ at the moment its source was scored — a
    deterministic superset of the exact top-k.  The caller sorts by
    ``(−Δ, repr)`` and truncates; because the running threshold never
    exceeds the final k-th Δ, the truncation yields exactly the same
    pairs (ties included) as the unpruned two-pass engine.

    ``prune=True`` processes sources in decreasing bound order so the
    tracker fills with large Δ values early; as soon as the next bound
    drops below the running threshold, *all* remaining sources are
    skipped (their t2 traversals never run), and surviving traversals
    are cut at depth ``ecc1 − threshold``.  ``prune=False`` runs the
    same single-pass collection without bounds or cuts — the honest
    baseline the benchmark compares against.

    ``delta`` and ``rows1`` (precomputed t1 level rows, index-aligned,
    never mutated) let benchmarks time the t2 phase in isolation.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if delta is None:
        delta = SnapshotDelta.from_graphs(g1, g2)
    if stats is None:
        stats = PruneStats()
    csr1, csr2, mapping = delta.csr1, delta.csr2, delta.mapping
    n = csr1.num_nodes
    stats.sources += n
    nodes = csr1.nodes

    def t1_row(i: int) -> np.ndarray:
        if rows1 is not None:
            return rows1[i]
        return bfs_levels(csr1, i)

    if prune:
        plan = PrunePlan.from_delta(delta)
        bounds = np.empty(n, dtype=np.int64)
        eccs = np.empty(n, dtype=np.int64)
        for i in range(n):
            lv1 = t1_row(i)
            eccs[i] = int(lv1.max())
            bounds[i] = source_bound(lv1, plan)
        order = np.argsort(-bounds, kind="stable")
    else:
        order = np.arange(n)

    tracker = KthTracker(k)
    rows: List[Row] = []
    compact_at = max(4 * k, 256)
    for pos in range(n):
        i = int(order[pos])
        theta = tracker.threshold
        if prune and bounds[i] < theta:
            # Bounds are sorted descending: every remaining source is
            # ruled out by the same comparison.
            stats.skipped += n - pos
            break
        lv1 = t1_row(i)
        if prune:
            stats.cut += 1
            max_level: Optional[int] = int(eccs[i]) - theta
        else:
            stats.full += 1
            max_level = None
        if incremental:
            lv2 = repair_levels(delta, lv1, max_level=max_level)[mapping]
        elif prune:
            lv2 = bounded_bfs_levels(csr2, int(mapping[i]), max_level)[mapping]
        else:
            lv2 = bfs_levels(csr2, int(mapping[i]))[mapping]
        valid = lv1 != UNREACHED
        valid[: i + 1] = False  # unordered pairs owned by the lower index
        deltas = lv1.astype(np.int64) - lv2.astype(np.int64)
        tracker.offer(deltas[valid])
        hits = np.flatnonzero(valid & (deltas >= theta))
        u = nodes[i]
        for j in hits:
            rows.append((u, nodes[int(j)], int(lv1[j]), int(lv2[j])))
        if len(rows) > compact_at:
            floor = tracker.threshold
            rows = [r for r in rows if r[2] - r[3] >= floor]
            compact_at = max(compact_at, 4 * len(rows))
    return rows
