"""Vectorised (CSR) ground-truth engine for unweighted snapshot pairs.

Level rows come in blocks from the multi-source BFS
(:func:`~repro.graph.msbfs.msbfs_levels`) on both snapshots of one
:class:`~repro.graph.pair.SnapshotPair`, the t2 block re-indexed onto
t1's node order.  A block's height is sized from the pair: the largest
multiple of 64 sources whose level block fits :data:`BLOCK_CELLS`, so a
pair of a few hundred nodes takes one sweep per snapshot and a large one
keeps 64-source blocks.  Row ``i`` owns the pair at column ``j`` when
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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.incremental import SnapshotDelta, repair_levels
from repro.graph.msbfs import WORD_BITS, msbfs_levels
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

#: ``int32`` cells one level block may hold (height × the larger
#: snapshot's node count).  Chosen by timing the end-to-end benchmark's
#: truth operations in process (docs/perf.md, "Sized msbfs blocks"):
#: 2^16 to 2^18 cells ran within 4% of each other, 2^15 and 64-source
#: blocks slower, and the smallest of the three holds the least memory
#: per block.  Snapshots of more than 1,024 nodes keep 64-source blocks.
BLOCK_CELLS = 1 << 16


def _block_height(width: int) -> int:
    """Sources per block: the largest multiple of 64 whose ``height ×
    width`` level block fits :data:`BLOCK_CELLS`, and never below 64."""
    fit = BLOCK_CELLS // max(width, 1) // WORD_BITS * WORD_BITS
    return max(WORD_BITS, fit)


def _blocks(
    g1: Graph, g2: Graph, pair: Optional[SnapshotPair] = None
) -> Tuple[Sequence[object], range, Callable[[int], Block]]:
    """t1 node order, the first source of every block, and the block
    at a first source.

    Block ``(s, lv1, lv2)`` holds the rows of sources ``s .. s + b − 1``
    (``b`` at most :func:`_block_height` of the pair) at the t1 nodes
    ``s .. n1 − 1``: ``lv1`` on ``G_t1`` and ``lv2`` on ``G_t2``, both
    ``(b, n1 − s)`` ``int32`` arrays in t1's node order.  Column ``c``
    is node ``s + c``.  A collector passes each block straight to the
    code that reads it, so a block is freed before the next is swept.
    ``pair`` is the pair of ``g1``/``g2`` when the caller holds one
    (:meth:`SnapshotPair.of`).
    """
    pair = SnapshotPair.of(g1, g2, pair)
    csr1, csr2, mapping = pair.csr1, pair.csr2, pair.mapping
    if csr1 is None or csr2 is None or mapping is None:
        raise ValueError(
            "the CSR engine counts hops; weighted snapshots need the dict "
            "engine"
        )
    n = csr1.num_nodes
    height = _block_height(max(n, csr2.num_nodes))

    def block(start: int) -> Block:
        sources = np.arange(start, min(start + height, n))
        return (
            start,
            msbfs_levels(csr1, sources, height)[:, start:],
            msbfs_levels(csr2, mapping[sources], height)[:, mapping[start:]],
        )

    return csr1.nodes, range(0, n, height), block


def _owned(start: int, lv1: np.ndarray) -> np.ndarray:
    """Cells of a block whose pair its row owns: ``j > i``, reached at t1."""
    rows = np.arange(start, start + lv1.shape[0])[:, None]
    cols = np.arange(start, start + lv1.shape[1])
    own = lv1 != UNREACHED
    own &= cols > rows
    return own


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


def _block_histogram(hist: Counter, block: Block) -> None:
    """Add a block's owned Δs to ``hist``, new keys by first row, then
    by value."""
    start, lv1, lv2 = block
    own = _owned(start, lv1)
    deltas = (lv1 - lv2)[own]
    if not deltas.size:
        return
    if deltas.min() < 0:
        raise ValueError(
            "negative distance change: G_t1 is not a subgraph of "
            "G_t2 (run check_snapshot_pair for details)"
        )
    counts = np.bincount(deltas)
    # held[d, r]: row r owns a pair at Δ = d; argmax finds the first.
    rows = np.arange(lv1.shape[0], dtype=np.int32)
    held = np.zeros((counts.size, rows.size), dtype=bool)
    held[deltas, np.repeat(rows, own.sum(axis=1))] = True
    keys = np.flatnonzero(counts)
    first = held[keys].argmax(axis=1)
    for d in keys[np.lexsort((keys, first))].tolist():
        hist[d] += int(counts[d])


def csr_delta_histogram(
    g1: Graph, g2: Graph, *, pair: Optional[SnapshotPair] = None
) -> Counter:
    """Exact Δ histogram over connected t1 pairs (unweighted fast path).

    Keys and counts are Python ints.  Keys enter in the order a scan of
    the rows in source order meets them (by first row, then by value),
    so the ``Counter`` iterates as the per-row engine's did.  ``pair``
    is the pair of ``g1``/``g2`` when the caller holds one.
    """
    _, starts, block = _blocks(g1, g2, pair)
    hist: Counter = Counter()
    for start in starts:
        _block_histogram(hist, block(start))
    return hist


def _threshold_rows(
    nodes: Sequence[object], block: Block, delta_min: float
) -> List[Row]:
    """A block's owned rows with ``Δ >= delta_min``."""
    start, lv1, lv2 = block
    hit = _owned(start, lv1) & (lv1 - lv2 >= delta_min)
    return _rows_at(nodes, block, hit)


def csr_pairs_at_threshold(
    g1: Graph, g2: Graph, delta_min: float, *,
    pair: Optional[SnapshotPair] = None,
) -> List[Row]:
    """All ``(u, v, d1, d2)`` rows with ``Δ >= delta_min`` (u-index < v-index).

    Returned as raw tuples in ``(i, j)`` order;
    :mod:`repro.core.pairs` wraps them into canonical
    :class:`~repro.core.pairs.ConvergingPair` objects so every engine
    shares one construction path.  ``pair`` is the pair of ``g1``/``g2``
    when the caller holds one.
    """
    nodes, starts, block = _blocks(g1, g2, pair)
    rows: List[Row] = []
    for start in starts:
        rows.extend(_threshold_rows(nodes, block(start), delta_min))
    return rows


def _top_rows(
    nodes: Sequence[object], block: Block, tracker: KthTracker
) -> List[Row]:
    """Offer a block's owned Δs to ``tracker``, then return its owned
    rows at or above the tracker's threshold."""
    start, lv1, lv2 = block
    own = _owned(start, lv1)
    deltas = lv1 - lv2
    tracker.offer(deltas[own])
    own &= deltas >= tracker.threshold
    return _rows_at(nodes, block, own)


def csr_top_k_pairs(
    g1: Graph, g2: Graph, k: int, *, pair: Optional[SnapshotPair] = None
) -> List[Row]:
    """Rows holding the exact top-k, from one pass at the running k-th Δ.

    Each block offers its Δs to a :class:`~repro.graph.prune.KthTracker`
    once, then keeps its cells at or above the tracker's threshold —
    the running k-th Δ, which never exceeds the final one.  The result
    is a superset of the exact top-k, ties at the k-th Δ included, in
    ``(i, j)`` order; the caller sorts by ``(−Δ, repr)`` and truncates,
    which yields exactly the pairs of a histogram pass plus a threshold
    pass.  ``pair`` is the pair of ``g1``/``g2`` when the caller holds
    one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nodes, starts, block = _blocks(g1, g2, pair)
    tracker = KthTracker(k)
    rows: List[Row] = []
    compact_at = max(4 * k, 256)
    for start in starts:
        rows.extend(_top_rows(nodes, block(start), tracker))
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
