"""Ground truth for converging pairs.

A pair of nodes ``(u, v)`` connected in ``G_t1`` converges by
``Δ(u, v) = d_t1(u, v) − d_t2(u, v) >= 0`` (insertion-only evolution can
only shrink distances).  The *top-k converging pairs* are the k connected
pairs with the largest Δ (Problem 1).

Exact computation needs all-pairs shortest paths on both snapshots.  To
keep memory linear we stream distance rows instead of materialising two
n x n matrices:

1. :func:`delta_histogram` counts pairs per Δ value (one streaming pass);
2. the caller picks a δ threshold (the paper sets k so the top-k set is
   *unique*: k = number of pairs with ``Δ >= δ``), and
   :func:`converging_pairs_at_threshold` collects exactly those pairs.

:func:`top_k_converging_pairs` serves arbitrary k, breaking residual
ties deterministically: in one pass at the running k-th Δ on the
unweighted engines (:mod:`repro.core.fastpairs`), in a histogram pass
plus a threshold pass on the ``dict`` engine.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.graph.traversal import single_source_distances
from repro.graph.validation import check_snapshot_pair

Node = Hashable
Pair = Tuple[Node, Node]


def canonical_pair(u: Node, v: Node) -> Pair:
    """The canonical (sorted) representation of an unordered node pair.

    Uses natural ordering when comparable, ``repr`` ordering otherwise, so
    sets of pairs from different code paths always agree.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(frozen=True, slots=True)
class ConvergingPair:
    """A scored converging pair.

    Slotted: an answer keeps a list of these, and a pair without a
    ``__dict__`` holds about two thirds of the bytes.

    Attributes
    ----------
    u, v:
        The endpoints, in canonical order.
    d1:
        Shortest-path distance in ``G_t1``.
    d2:
        Shortest-path distance in ``G_t2``.
    """

    u: Node
    v: Node
    d1: float
    d2: float

    @property
    def delta(self) -> float:
        """The convergence score ``d1 − d2``."""
        return self.d1 - self.d2

    @property
    def pair(self) -> Pair:
        """The canonical ``(u, v)`` tuple."""
        return (self.u, self.v)

    def sort_key(self) -> tuple:
        """Deterministic ranking key: Δ descending, then endpoints ascending."""
        return (-self.delta, repr(self.u), repr(self.v))


def _delta_rows(
    g1: Graph, g2: Graph, validate: bool
) -> Iterator[Tuple[Node, Dict[Node, float], Dict[Node, float]]]:
    """Stream ``(source, d1_row, d2_row)`` for every node of ``G_t1``.

    ``d2_row`` is the ``G_t2`` distance map of the same source.  Sources
    follow ``G_t1`` insertion order; each unordered pair is later counted
    once by the ``rank`` filter in the consumers.
    """
    if validate:
        check_snapshot_pair(g1, g2)
    for u in g1.nodes():
        d1 = single_source_distances(g1, u)
        d2 = single_source_distances(g2, u)
        yield u, d1, d2


def pair_delta(g1: Graph, g2: Graph, u: Node, v: Node) -> Optional[float]:
    """Convergence score of a single pair; ``None`` if not connected at t1."""
    d1 = single_source_distances(g1, u).get(v)
    if d1 is None:
        return None
    d2 = single_source_distances(g2, u).get(v)
    if d2 is None:  # pragma: no cover - impossible for valid snapshot pairs
        raise ValueError(
            f"pair ({u!r}, {v!r}) connected at t1 but not t2; "
            "snapshots are not insertion-only"
        )
    return d1 - d2


#: Recognised values of the ``engine`` argument, in resolution order.
ENGINES = ("auto", "csr", "dict")


def _resolve_engine(g1: Graph, g2: Graph, engine: str) -> str:
    """Resolve the requested engine to ``csr`` or ``dict``.

    ``auto`` picks the CSR engine — msbfs rows in blocks sized from the
    pair on both snapshots (:mod:`repro.core.fastpairs`) — whenever both
    snapshots are unweighted, and the dict engine otherwise.  Explicit
    names are honoured as given, except that ``csr`` counts hops and so
    raises ``ValueError`` on a weighted pair.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {'/'.join(ENGINES)}, got {engine!r}"
        )
    weighted = g1.is_weighted() or g2.is_weighted()
    if engine == "auto":
        return "dict" if weighted else "csr"
    if weighted and engine != "dict":
        raise ValueError(
            f"engine {engine!r} counts hops and ignores edge weights; "
            "weighted snapshots need the dict (or auto) engine"
        )
    return engine


def _ranked(
    rows: Iterable[Tuple[Node, Node, float, float]]
) -> List[ConvergingPair]:
    """``(u, v, d1, d2)`` rows as canonical pairs, best Δ first.

    The sort is stable, so pairs with equal sort keys keep row order.
    """
    out = [
        ConvergingPair(*canonical_pair(u, v), d1, d2) for u, v, d1, d2 in rows
    ]
    out.sort(key=ConvergingPair.sort_key)
    return out


def _ranked_top(
    rows: Sequence[Tuple[Node, Node, float, float]], k: int
) -> List[ConvergingPair]:
    """``_ranked(rows)[:k]``, building only the ``k`` pairs it returns.

    Rows under the k-th largest Δ sort after the first ``k``, so they
    are cut first; the survivors are ordered by
    :meth:`ConvergingPair.sort_key` of their canonical endpoints, row
    order breaking ties as the stable sort does.
    """
    if len(rows) > k:
        kth = heapq.nlargest(k, (d1 - d2 for _, _, d1, d2 in rows))[-1]
        rows = [row for row in rows if row[2] - row[3] >= kth]
    ends = [canonical_pair(u, v) for u, v, _, _ in rows]
    order = sorted(
        range(len(rows)),
        key=lambda i: (
            rows[i][3] - rows[i][2],  # −Δ
            repr(ends[i][0]), repr(ends[i][1]),
        ),
    )
    return [
        ConvergingPair(*ends[i], rows[i][2], rows[i][3]) for i in order[:k]
    ]


def delta_histogram(
    g1: Graph, g2: Graph, validate: bool = True, engine: str = "auto", *,
    pair: Optional[SnapshotPair] = None,
) -> Counter:
    """Count connected t1-pairs per Δ value.

    Returns a ``Counter`` mapping Δ (0 included) to the number of
    unordered connected pairs achieving it.  One SSSP pair per node —
    ``O(n (n + m))`` time, ``O(n)`` memory beyond the histogram.

    ``engine`` selects the implementation: ``"dict"`` streams Python
    distance maps (works for weighted graphs), ``"csr"`` takes both
    snapshots' level rows from the multi-source BFS in blocks sized
    from the pair, and ``"auto"`` (default) picks ``csr`` whenever both
    snapshots are unweighted.  Both engines return identical histograms
    — a property the test suite pins down.

    ``pair`` is the :class:`~repro.graph.pair.SnapshotPair` of ``g1``
    and ``g2`` when the caller already holds one, as for
    :func:`top_k_converging_pairs`.
    """
    if pair is not None:
        SnapshotPair.of(g1, g2, pair)
    if validate:
        check_snapshot_pair(g1, g2)
    if _resolve_engine(g1, g2, engine) == "csr":
        from repro.core.fastpairs import csr_delta_histogram

        return csr_delta_histogram(g1, g2, pair=pair)
    rank = {u: i for i, u in enumerate(g1.nodes())}
    hist: Counter = Counter()
    for u, d1, d2 in _delta_rows(g1, g2, validate=False):
        ru = rank[u]
        for v, duv1 in d1.items():
            if v is u or rank[v] < ru:
                continue  # count each unordered pair once
            hist[duv1 - d2[v]] += 1
    return hist


def max_delta(g1: Graph, g2: Graph, validate: bool = True) -> float:
    """The largest convergence score Δmax over all connected t1-pairs.

    Returns 0.0 when ``G_t1`` has no connected pairs at all.
    """
    hist = delta_histogram(g1, g2, validate=validate)
    return max(hist) if hist else 0.0


def k_for_delta_threshold(hist: Counter, delta_min: float) -> int:
    """Number of pairs with ``Δ >= delta_min`` — the paper's k choice.

    Setting k to this count makes the top-k set unique (every pair at or
    above the threshold is in, everything below is out), which is how the
    paper makes the evaluation well-defined despite massive Δ ties.
    """
    return sum(c for d, c in hist.items() if d >= delta_min)


def converging_pairs_at_threshold(
    g1: Graph, g2: Graph, delta_min: float, validate: bool = True,
    engine: str = "auto", *, pair: Optional[SnapshotPair] = None,
) -> List[ConvergingPair]:
    """All connected t1-pairs with ``Δ >= delta_min``, best Δ first.

    ``delta_min`` must be positive: Δ = 0 pairs (no change) are never
    "converging", and collecting them would materialise nearly all pairs.
    ``engine`` and ``pair`` follow :func:`delta_histogram`'s convention.
    """
    if delta_min <= 0:
        raise ValueError(f"delta_min must be positive, got {delta_min}")
    if pair is not None:
        SnapshotPair.of(g1, g2, pair)
    if validate:
        check_snapshot_pair(g1, g2)
    if _resolve_engine(g1, g2, engine) == "csr":
        from repro.core.fastpairs import csr_pairs_at_threshold

        return _ranked(csr_pairs_at_threshold(g1, g2, delta_min, pair=pair))
    rank = {u: i for i, u in enumerate(g1.nodes())}
    rows: List[Tuple[Node, Node, float, float]] = []
    for u, d1, d2 in _delta_rows(g1, g2, validate=False):
        ru = rank[u]
        for v, duv1 in d1.items():
            if v is u or rank[v] < ru:
                continue
            duv2 = d2[v]
            if duv1 - duv2 >= delta_min:
                rows.append((u, v, duv1, duv2))
    return _ranked(rows)


def top_k_converging_pairs(
    g1: Graph, g2: Graph, k: int, validate: bool = True,
    engine: str = "auto", prune: bool = False, *,
    pair: Optional[SnapshotPair] = None,
) -> List[ConvergingPair]:
    """The exact top-k converging pairs (Problem 1), ground-truth solution.

    The ``csr`` engine collects in one pass: each block of sources
    offers its Δs to the running k-th best Δ and keeps the pairs at or
    above it (:func:`~repro.core.fastpairs.csr_top_k_pairs`).  The
    ``dict`` engine makes two streaming passes: a Δ histogram to locate
    the k-th score, then a collection pass at that threshold.  Residual
    ties at the boundary are broken deterministically by
    :meth:`ConvergingPair.sort_key`, and the running threshold never
    exceeds the final k-th Δ, so both engines return the same k pairs in
    the same order.

    ``prune`` selects no code path: both values return the same list.
    It is kept for callers that pass it, and ``prune=True`` still raises
    ``ValueError`` where the engine resolves to ``dict`` (an explicit
    ``dict``, or weighted snapshots).

    ``pair`` is the :class:`~repro.graph.pair.SnapshotPair` of ``g1`` and
    ``g2`` when the caller already holds one: the ``csr`` engine takes
    its rows from it instead of building its own, and a pair built over
    other graph objects raises ``ValueError`` on either engine.

    Returns fewer than k pairs when fewer than k pairs have Δ > 0.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if pair is not None:
        SnapshotPair.of(g1, g2, pair)
    if validate:
        check_snapshot_pair(g1, g2)
    resolved = _resolve_engine(g1, g2, engine)
    if prune and resolved == "dict":
        raise ValueError(
            "prune=True requires the unweighted csr engine; the dict "
            "engine has no level arrays to bound against the running "
            "k-th Δ"
        )
    if resolved == "csr":
        from repro.core.fastpairs import csr_top_k_pairs

        return _ranked_top(csr_top_k_pairs(g1, g2, k, pair=pair), k)
    hist = delta_histogram(g1, g2, validate=False, engine="dict")
    # Find the smallest positive threshold with at least k pairs above it.
    threshold = None
    cumulative = 0
    for d in sorted((d for d in hist if d > 0), reverse=True):
        cumulative += hist[d]
        threshold = d
        if cumulative >= k:
            break
    if threshold is None:
        return []
    pairs = converging_pairs_at_threshold(
        g1, g2, threshold, validate=False, engine="dict"
    )
    return pairs[:k]


def pairs_as_set(pairs: Sequence[ConvergingPair]) -> set:
    """The canonical-pair set of a pair list (for coverage computations)."""
    return {p.pair for p in pairs}
