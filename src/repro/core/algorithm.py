"""The generic top-k algorithm (Algorithm 1 of the paper).

Given a candidate selector, the generic algorithm

1. asks the selector for up to ``m`` candidate endpoints (phase 1,
   charged to the SSSP budget as ``"generation"``),
2. computes single-source shortest paths from every candidate in both
   snapshots (phase 2, ``"topk"`` charges; rows the selector already
   computed are reused for free) — both phases take their rows from one
   :class:`~repro.graph.pair.SnapshotPair` built per query,
3. scores every ``(candidate, v)`` pair connected at t1 with
   ``Δ = d_t1 − d_t2`` and returns the k best.

The total spend is exactly ``2m`` SSSPs for every selector in the suite —
the budget tests assert this against Table 1's per-approach split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, Hashable, List, Optional, Sequence, TYPE_CHECKING,
)

import numpy as np

from repro.core.budget import SPBudget
from repro.core.pairs import ConvergingPair, canonical_pair
from repro.graph.csr import UNREACHED
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair, pair_rows
from repro.graph.traversal import single_source_distances
from repro.graph.validation import check_snapshot_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.selection.base import CandidateSelector, SelectionResult

Node = Hashable


@dataclass
class TopKResult:
    """Everything Algorithm 1 produced, plus its audit trail.

    Attributes
    ----------
    pairs:
        The k best converging pairs found among candidate-incident pairs,
        ranked by Δ descending (deterministic tie-breaks).
    candidates:
        The candidate endpoints the selector nominated.
    budget:
        The budget object after the run — inspect ``budget.by_phase()``
        to see the Table 1 split.
    """

    pairs: List[ConvergingPair]
    candidates: List[Node]
    budget: SPBudget

    def found_pair_set(self) -> set:
        """Canonical-pair set of the result (for coverage computations)."""
        return {p.pair for p in self.pairs}


def find_top_k_converging_pairs(
    g1: Graph,
    g2: Graph,
    k: int,
    m: int,
    selector: "CandidateSelector",
    seed: Optional[int] = None,
    validate: bool = True,
    budget_limit: Optional[int] = -1,
    *,
    pair: Optional[SnapshotPair] = None,
) -> TopKResult:
    """Algorithm 1: budgeted top-k converging pairs.

    Parameters
    ----------
    g1, g2:
        The snapshots (``g1`` must be a subgraph of ``g2``).
    k:
        How many pairs to return.
    m:
        The budget parameter: ``2m`` SSSP computations in total.
    selector:
        Any :class:`~repro.selection.base.CandidateSelector`.
    seed:
        Seed for the selector's randomised choices (landmark sampling).
    validate:
        Run the snapshot-pair structural checks first (disable for tight
        benchmark loops on trusted inputs).
    budget_limit:
        ``-1`` (default) enforces the paper's ``2m``; ``None`` disables
        enforcement; any other value is a custom limit.
    pair:
        The :class:`~repro.graph.pair.SnapshotPair` of ``g1`` and ``g2``
        when the caller already holds one; ``None`` builds it.  A pair
        built over other graph objects raises ``ValueError``.

    Returns
    -------
    TopKResult
        Pairs found, candidates used, and the audited budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if validate:
        check_snapshot_pair(g1, g2)
    pair = SnapshotPair.of(g1, g2, pair)

    limit = 2 * m if budget_limit == -1 else budget_limit
    budget = SPBudget(limit)
    rng = np.random.default_rng(seed)

    result = selector.select(g1, g2, m, budget, rng=rng, pair=pair)
    candidates = list(result.candidates)
    if len(candidates) > m:
        raise ValueError(
            f"selector {selector.name!r} returned {len(candidates)} "
            f"candidates for budget m={m}"
        )
    if len(set(candidates)) != len(candidates):
        raise ValueError(
            f"selector {selector.name!r} returned duplicate candidates"
        )
    for c in candidates:
        if c not in g1:
            raise ValueError(
                f"selector {selector.name!r} returned candidate {c!r} "
                "that is not a node of G_t1 (pairs must be connected at t1)"
            )

    # Phase 2: distance rows from every candidate in both snapshots,
    # then Δ for every candidate-incident connected pair.  Unweighted
    # snapshots run through the vectorised CSR engine; weighted ones
    # stream Dijkstra rows.  Results are identical either way.
    if pair.weighted:
        scored = _score_candidates_dict(pair, candidates, result, budget)
    else:
        scored = _score_candidates_csr(pair, candidates, result, budget, k)

    ranked = sorted(scored.values(), key=ConvergingPair.sort_key)
    return TopKResult(pairs=ranked[:k], candidates=candidates, budget=budget)


def _score_candidates_dict(
    pair: SnapshotPair, candidates: Sequence[Node],
    result: "SelectionResult", budget: SPBudget,
) -> Dict[tuple, ConvergingPair]:
    """Reference scoring path: one distance map pair per candidate.

    Cached selector rows are read back into maps through the pair's
    node order.
    """
    g1, g2, nodes = pair.g1, pair.g2, pair.nodes

    def as_map(row: np.ndarray) -> Dict[Node, float]:
        at = np.flatnonzero(row != UNREACHED)
        return dict(zip([nodes[i] for i in at], row[at].tolist()))

    scored: Dict[tuple, ConvergingPair] = {}
    for c in candidates:
        if c in result.d1_rows:
            d1 = as_map(result.d1_rows[c])
        else:
            budget.charge("topk", "g1", 1)
            d1 = single_source_distances(g1, c)
        if c in result.d2_rows:
            d2 = as_map(result.d2_rows[c])
        else:
            budget.charge("topk", "g2", 1)
            d2 = single_source_distances(g2, c)
        for v, dv1 in d1.items():
            if v == c:
                continue
            delta = dv1 - d2[v]
            if delta <= 0:
                continue
            key = canonical_pair(c, v)
            if key not in scored:
                scored[key] = ConvergingPair(key[0], key[1], dv1, d2[v])
    return scored


def _level_matrix(
    candidates: Sequence[Node], cached: Dict[Node, np.ndarray],
    fresh: Optional[np.ndarray], n: int,
) -> np.ndarray:
    """``(len(candidates), n)`` levels, one row per candidate: its cached
    selector row, else the next row of ``fresh`` (the block computed for
    the uncached candidates, in candidate order)."""
    dtype = np.result_type(
        np.int32, *(cached[c].dtype for c in candidates if c in cached)
    )
    levels = np.empty((len(candidates), n), dtype=dtype)
    at = [p for p, c in enumerate(candidates) if c not in cached]
    if fresh is not None:
        levels[at] = fresh
    for p, c in enumerate(candidates):
        if c in cached:
            levels[p] = cached[c]
    return levels


def _score_candidates_csr(
    pair: SnapshotPair, candidates: Sequence[Node],
    result: "SelectionResult", budget: SPBudget, k: int = 0,
) -> Dict[tuple, ConvergingPair]:
    """Vectorised scoring path for unweighted snapshots.

    Every row — cached by the selector or freshly charged — is a level
    array in ``G_t1``'s node order.  Charges come first: a missing row
    is charged to ``topk`` on its snapshot, one record per row in
    candidate order (g1 before g2), exactly as the dict path charges; a
    cached row is free.  Then one :func:`~repro.graph.pair.pair_rows`
    block computes every fresh t1 row and one every fresh t2 row, and
    each snapshot's rows fill one ``(c, n1)`` level matrix.

    One pass over the two matrices marks every positive-Δ pair reached
    at t1.  A pair of two candidates is met from both endpoints; the
    sighting of whichever candidate comes first is kept, exactly as the
    dict path does.  The returned map then holds only the pairs whose Δ
    reaches the ``k``-th largest over all scored pairs (every pair for
    ``k=0``), in candidate-then-index order.  Every dropped pair sorts
    after all of them, so the caller's stable ``sort_key`` sort and
    ``[:k]`` return the same list, ties at the k-th Δ included.
    """
    fresh1 = [c for c in candidates if c not in result.d1_rows]
    fresh2 = [c for c in candidates if c not in result.d2_rows]
    for c in candidates:
        if c not in result.d1_rows:
            budget.charge("topk", "g1", 1)
        if c not in result.d2_rows:
            budget.charge("topk", "g2", 1)
    n = len(pair.nodes)
    lv1 = _level_matrix(candidates, result.d1_rows,
                        pair_rows(pair, fresh1, "g1") if fresh1 else None, n)
    lv2 = _level_matrix(candidates, result.d2_rows,
                        pair_rows(pair, fresh2, "g2") if fresh2 else None, n)

    col = np.fromiter(
        map(pair.index.__getitem__, candidates), np.int64, len(candidates)
    )
    hit = (lv1 != UNREACHED) & (lv1 - lv2 > 0)
    hit[np.arange(col.size), col] = False
    # mutual[p, q]: candidate p hit candidate q.  Candidate p drops its
    # sighting of an earlier candidate q (q < p) that hit p first.
    mutual = hit[:, col]
    hit[:, col] = mutual & ~np.tril(mutual.T, -1)
    owner, target = np.nonzero(hit)
    d1 = lv1[owner, target]
    d2 = lv2[owner, target]
    # A pair under the k-th largest Δ sorts after all k pairs the caller
    # keeps, so only pairs at or above it become objects.
    if 0 < k < target.size:
        deltas = d1 - d2
        kth = np.partition(deltas, target.size - k)[target.size - k]
        keep = np.flatnonzero(deltas >= kth)
        owner, target, d1, d2 = owner[keep], target[keep], d1[keep], d2[keep]
    nodes = pair.nodes
    scored: Dict[tuple, ConvergingPair] = {}
    for p, j, x1, x2 in zip(
        owner.tolist(), target.tolist(), d1.tolist(), d2.tolist(),
    ):
        key = canonical_pair(candidates[p], nodes[j])
        scored[key] = ConvergingPair(key[0], key[1], x1, x2)
    return scored
