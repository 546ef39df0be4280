"""Bit-parallel multi-source BFS: up to 64 traversals per frontier sweep.

:func:`repro.graph.csr.bfs_levels` already expands whole levels with
vectorised gathers, but a batch of ``b`` sources still pays ``b``
independent Python-level frontier loops over the same adjacency.  This
module amortises that: the frontiers of up to 64 sources are packed into
one ``uint64`` word per node (*lane* ``j`` = bit ``j`` = source ``j``),
so a single sweep advances every traversal in the batch at once —

* ``frontier`` / ``unseen`` are ``(num_nodes, words)`` ``uint64``
  arrays (``words = ceil(batch / 64)``): the lanes that reached a node
  at the current depth, and the lanes that have not reached it yet;
* one level *pulls*: every node with a neighbour ORs its neighbours'
  frontier words together (one ``np.bitwise_or.reduceat`` over the CSR
  rows), and ANDing with ``unseen`` leaves the lanes fresh at the next
  depth;
* levels are kept in *bit planes*: plane ``k`` holds, in each (source,
  node) pair's lane bit, bit ``k`` of that pair's level, so depth ``d``
  ORs its fresh words into the ⌊log2 d⌋ + 1 planes of ``d``'s set bits,
  and each plane is unpacked once, after the last level.

Pulling equals pushing each frontier word to its neighbours because
every :class:`~repro.graph.csr.CSRGraph` is symmetric: ``from_graph``
freezes an undirected :class:`~repro.graph.graph.Graph`, and a
restricted universe drops both directions of an edge.  A lane bit is
fresh at exactly one depth — it leaves ``unseen`` at once — so the
planes hold each reached pair's level exactly, and a lane still in
``unseen`` is ``UNREACHED``.

BFS levels do not depend on visit order within a level, so the output is
**bit-identical** to running :func:`~repro.graph.csr.bfs_levels` once per
source — same values, same dtype, any batch width.  The differential and
hypothesis suites (``tests/test_graph_msbfs.py``) pin this.

A pull level reads every edge, not only the frontier's.  That loses
where a batch spends many levels in a thin part of a graph whose edges
sit elsewhere: a 200-node clique with a 500-node path attached, 64
sources in the clique, takes about twice as long as the scatter kernel
this one replaced (docs/perf.md, "Bit-parallel multi-source BFS").

Budget semantics are untouched: one *source* in a batch is still one
SSSP result, charged exactly like a lone traversal (the ledger counts
results obtained, not frontier sweeps — see docs/budget-model.md).
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED

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


def _pull_rows(csr: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes with at least one neighbour, and where their CSR rows start.

    The starts rise strictly and the last row runs to the end of
    ``indices``, which is what ``reduceat`` needs to OR one row per node.
    """
    indptr = csr.indptr
    has = np.flatnonzero(indptr[1:] > indptr[:-1])
    return has, indptr[has]


def _lane_bits(words: np.ndarray) -> np.ndarray:
    """One ``uint8`` per lane: ``(n, words)`` → ``(n, words · 64)``."""
    if sys.byteorder != "little":  # pragma: no cover - BE hosts only
        words = words.byteswap()
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _msbfs_block(
    csr: CSRGraph, src: np.ndarray, has: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Level rows for one batch of at most :data:`WORD_BITS` · words sources.

    ``has`` and ``starts`` are :func:`_pull_rows` of ``csr``.
    """
    n = csr.num_nodes
    b = int(src.size)
    words = (b + WORD_BITS - 1) // WORD_BITS
    lanes = np.arange(b, dtype=np.int64)
    frontier = np.zeros((n, words), dtype=np.uint64)
    # Duplicate sources (two lanes seeded on one node) must both set
    # their bits, so the seed is a scatter-OR, not plain assignment.
    np.bitwise_or.at(
        frontier,
        (src, lanes // WORD_BITS),
        np.left_shift(np.uint64(1), (lanes % WORD_BITS).astype(np.uint64)),
    )
    unseen = ~frontier
    gathered = np.empty((csr.indices.size, words), dtype=np.uint64)
    planes: List[np.ndarray] = []
    depth = 0
    while has.size:
        depth += 1
        np.take(frontier, csr.indices, axis=0, out=gathered)
        pulled = np.bitwise_or.reduceat(gathered, starts, axis=0)
        if has.size == n:
            fresh = pulled
        else:
            fresh = np.zeros_like(unseen)
            fresh[has] = pulled
        fresh &= unseen
        if not fresh.any():
            break
        unseen ^= fresh
        for k in range(depth.bit_length()):
            if depth >> k & 1:
                if k < len(planes):
                    planes[k] |= fresh
                else:  # depth == 2**k: the first level with bit k set
                    planes.append(fresh.copy())
        frontier = fresh
    # The narrowest unsigned type that holds every level reached.
    level_type = np.min_scalar_type((1 << len(planes)) - 1)
    acc = np.zeros((n, words * WORD_BITS), dtype=level_type)
    for k, plane in enumerate(planes):
        acc |= _lane_bits(plane).astype(level_type, copy=False) << k
    levels = acc[:, :b].T.astype(np.int32, order="C")
    levels[_lane_bits(unseen)[:, :b].T == 1] = UNREACHED
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
    has, starts = _pull_rows(csr)
    out = np.empty((src.size, csr.num_nodes), dtype=np.int32)
    for start in range(0, src.size, batch_size):
        block = src[start : start + batch_size]
        out[start : start + block.size] = _msbfs_block(csr, block, has, starts)
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
    has, starts = _pull_rows(csr)
    for start in range(0, src.size, batch_size):
        block_src = src[start : start + batch_size]
        block = _msbfs_block(csr, block_src, has, starts)
        for j in range(block_src.size):
            yield int(block_src[j]), block[j]
