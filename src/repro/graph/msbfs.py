"""Bit-parallel multi-source BFS: up to 64 traversals per frontier sweep.

:func:`repro.graph.csr.bfs_levels` already expands whole levels with
vectorised gathers, but a batch of ``b`` sources still pays ``b``
independent Python-level frontier loops over the same adjacency.  This
module amortises that: the frontiers of up to 64 sources are packed into
one ``uint64`` word per node (*lane* ``j`` = bit ``j`` = source ``j``),
so a single sweep advances every traversal in the batch at once —

* ``visited`` / ``frontier`` / ``next`` are ``(num_nodes, words)``
  ``uint64`` arrays (``words = ceil(batch / 64)``);
* one level step OR-accumulates each frontier node's word into its
  neighbors' ``next`` words (``np.bitwise_or.at`` — a scatter with
  duplicate accumulation), then masks off already-visited lanes;
* the freshly set bits are unpacked back into per-source ``int32``
  level rows.

BFS levels do not depend on visit order within a level, so the output is
**bit-identical** to running :func:`~repro.graph.csr.bfs_levels` once per
source — same values, same dtype, any batch width.  The differential and
hypothesis suites (``tests/test_graph_msbfs.py``) pin this.

Budget semantics are untouched: one *source* in a batch is still one
SSSP result, charged exactly like a lone traversal (the ledger counts
results obtained, not frontier sweeps — see docs/budget-model.md).
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED, _multi_arange

#: Lanes per frontier word — one uint64 bit per source.
WORD_BITS = 64

#: Default batch width: one full word of sources per sweep.
DEFAULT_BATCH = 64

Sources = Union[Sequence[int], np.ndarray, range]


def _as_source_array(csr: CSRGraph, sources: Sources) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64).ravel()
    n = csr.num_nodes
    if src.size and (int(src.min()) < 0 or int(src.max()) >= n):
        bad = src[(src < 0) | (src >= n)][0]
        raise IndexError(f"source index {int(bad)} out of range [0, {n})")
    return src


def _msbfs_block(csr: CSRGraph, src: np.ndarray) -> np.ndarray:
    """Level rows for one batch of at most :data:`WORD_BITS` · words sources."""
    n = csr.num_nodes
    b = int(src.size)
    words = (b + WORD_BITS - 1) // WORD_BITS
    levels = np.full((b, n), UNREACHED, dtype=np.int32)
    lanes = np.arange(b, dtype=np.int64)
    levels[lanes, src] = 0

    visited = np.zeros((n, words), dtype=np.uint64)
    frontier = np.zeros((n, words), dtype=np.uint64)
    scratch = np.zeros((n, words), dtype=np.uint64)
    lane_word = lanes // WORD_BITS
    lane_bit = np.left_shift(
        np.uint64(1), (lanes % WORD_BITS).astype(np.uint64)
    )
    # Duplicate sources (two lanes seeded on one node) must both set
    # their bits, so the seed is a scatter-OR, not plain assignment.
    np.bitwise_or.at(visited, (src, lane_word), lane_bit)
    np.bitwise_or.at(frontier, (src, lane_word), lane_bit)

    indptr, indices = csr.indptr, csr.indices
    depth = 0
    while True:
        active = np.flatnonzero(frontier.any(axis=1))
        if not active.size:
            break
        depth += 1
        starts = indptr[active]
        counts = indptr[active + 1] - starts
        nonzero = counts > 0
        if not nonzero.any():
            break
        gather = _multi_arange(starts[nonzero], counts[nonzero])
        neighbors = indices[gather]
        owners = np.repeat(active[nonzero], counts[nonzero])
        scratch[:] = 0
        np.bitwise_or.at(scratch, neighbors, frontier[owners])
        np.bitwise_and(scratch, ~visited, out=scratch)
        reached = np.flatnonzero(scratch.any(axis=1))
        if not reached.size:
            break
        visited[reached] |= scratch[reached]
        fresh = scratch[reached]
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            fresh = fresh.byteswap()
        bits = np.unpackbits(
            fresh.view(np.uint8), axis=1, bitorder="little"
        )
        node_pos, lane = np.nonzero(bits[:, :b])
        levels[lane, reached[node_pos]] = depth
        frontier, scratch = scratch, frontier
    return levels


def msbfs_levels(
    csr: CSRGraph, sources: Sources, batch_size: int = DEFAULT_BATCH
) -> np.ndarray:
    """Level rows for every source, ``batch_size`` traversals per sweep.

    Returns a ``(len(sources), num_nodes)`` ``int32`` matrix whose row
    ``j`` equals ``bfs_levels(csr, sources[j])`` bit for bit
    (``UNREACHED`` off-component).  ``batch_size`` only controls how
    many sources share a frontier sweep — never the output.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    src = _as_source_array(csr, sources)
    out = np.empty((src.size, csr.num_nodes), dtype=np.int32)
    for start in range(0, src.size, batch_size):
        block = src[start : start + batch_size]
        out[start : start + block.size] = _msbfs_block(csr, block)
    return out


def iter_msbfs_rows(
    csr: CSRGraph, sources: Sources, batch_size: int = DEFAULT_BATCH
) -> Iterator[Tuple[int, np.ndarray]]:
    """Stream ``(source_idx, level_row)`` pairs, batched under the hood.

    Rows are yielded in ``sources`` order; each row is a distinct slice
    of its batch matrix (freshly allocated per batch, never reused), so
    consumers may mutate a yielded row in place.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    src = _as_source_array(csr, sources)
    for start in range(0, src.size, batch_size):
        block_src = src[start : start + batch_size]
        block = _msbfs_block(csr, block_src)
        for j in range(block_src.size):
            yield int(block_src[j]), block[j]
