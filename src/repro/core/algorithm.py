"""The generic top-k algorithm (Algorithm 1 of the paper).

Given a candidate selector, the generic algorithm

1. asks the selector for up to ``m`` candidate endpoints (phase 1,
   charged to the SSSP budget as ``"generation"``),
2. computes single-source shortest paths from every candidate in both
   snapshots (phase 2, ``"topk"`` charges; rows the selector already
   computed are reused for free),
3. scores every ``(candidate, v)`` pair connected at t1 with
   ``Δ = d_t1 − d_t2`` and returns the k best.

The total spend is exactly ``2m`` SSSPs for every selector in the suite —
the budget tests assert this against Table 1's per-approach split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Hashable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING,
)

import numpy as np

from repro.core.budget import SPBudget
from repro.core.pairs import ConvergingPair, canonical_pair
from repro.graph.graph import Graph
from repro.graph.traversal import single_source_distances
from repro.graph.validation import check_snapshot_pair
from repro.parallel import ParallelExecutor, worker_state

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
    workers: int = 1,
    prune: bool = False,
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
    workers:
        Process-pool size for the phase-2 per-candidate SSSP batch
        (1 = serial).  Results and budget accounting are bit-identical
        at any worker count; candidate selection (phase 1) is untouched.
    prune:
        Apply Δ-aware pruning (:mod:`repro.graph.prune`) to the phase-2
        traversals: serial runs maintain the running k-th best Δ and
        skip or level-cut candidates whose bound rules them out; pooled
        workers apply the static Δ ≥ 1 bound (rows are precomputed, so
        no running k-th exists yet).  The returned pairs and the budget
        ledger are identical either way — a skipped or cut traversal
        still charges as one SSSP, exactly like an unpruned one, because
        the paper's budget counts SSSP *results obtained* (the pruned
        engine provably obtains the same result).  Unweighted snapshots
        only.

    Returns
    -------
    TopKResult
        Pairs found, candidates used, and the audited budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if prune and (g1.is_weighted() or g2.is_weighted()):
        raise ValueError(
            "prune=True requires unweighted snapshots; the weighted "
            "(dict) scoring path has no level arrays to bound"
        )
    if validate:
        check_snapshot_pair(g1, g2)

    limit = 2 * m if budget_limit == -1 else budget_limit
    budget = SPBudget(limit)
    rng = np.random.default_rng(seed)

    result = selector.select(g1, g2, m, budget, rng=rng)
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
    if g1.is_weighted() or g2.is_weighted():
        scored = _score_candidates_dict(
            g1, g2, candidates, result, budget, workers
        )
    else:
        from repro.parallel import derive_run_id

        scored = _score_candidates_csr(
            g1, g2, candidates, result, budget, workers,
            prune=prune, k=k,
            # Seeded, collision-safe shm segment identity — everything
            # that shapes the run, nothing from the clock or the pid.
            shm_run_id=derive_run_id(
                "topk.sssp", selector.name, seed, k, m, len(candidates)
            ),
        )

    ranked = sorted(scored.values(), key=ConvergingPair.sort_key)
    return TopKResult(pairs=ranked[:k], candidates=candidates, budget=budget)


def _dict_rows_task(
    spec: "Tuple[Node, bool, bool]",
) -> "Tuple[Optional[Dict[Node, float]], Optional[Dict[Node, float]]]":
    """Worker task: fresh distance maps for one candidate (weighted path)."""
    c, need1, need2 = spec
    state = worker_state()
    # reprolint: disable=R004 -- charged in the parent's scoring loop before dispatch (ledger stays in-parent)
    d1 = single_source_distances(state["g1"], c) if need1 else None
    # reprolint: disable=R004 -- charged in the parent's scoring loop before dispatch (ledger stays in-parent)
    d2 = single_source_distances(state["g2"], c) if need2 else None
    return d1, d2


def _score_candidates_dict(
    g1: Graph, g2: Graph, candidates: Sequence[Node],
    result: "SelectionResult", budget: SPBudget,
    workers: int = 1, prune: bool = False, k: int = 0,
    shm_run_id: Optional[str] = None,
) -> Dict[tuple, ConvergingPair]:
    """Reference scoring path: one distance map pair per candidate.

    ``prune``/``k``/``shm_run_id`` keep the signature interchangeable
    with ``_score_candidates_csr``; distance maps carry no level arrays
    to bound (callers reject ``prune=True`` on weighted inputs before
    reaching here), and dict graphs hold no shareable arrays, so the
    arena never publishes on this path.
    """
    fresh: Dict[Node, tuple] = {}
    if workers > 1:
        specs = [
            (c, result.d1_rows.get(c) is None, result.d2_rows.get(c) is None)
            for c in candidates
        ]
        if any(n1 or n2 for _, n1, n2 in specs):
            executor = ParallelExecutor(
                workers, state={"g1": g1, "g2": g2}, shm_run_id=shm_run_id
            )
            rows = executor.map(_dict_rows_task, specs, unit="topk.sssp")
            fresh = dict(zip(candidates, rows))

    scored: Dict[tuple, ConvergingPair] = {}
    for c in candidates:
        pre1, pre2 = fresh.get(c, (None, None))
        d1 = result.d1_rows.get(c)
        if d1 is None:
            budget.charge("topk", "g1", 1)
            d1 = pre1 if pre1 is not None else single_source_distances(g1, c)
        d2 = result.d2_rows.get(c)
        if d2 is None:
            budget.charge("topk", "g2", 1)
            d2 = pre2 if pre2 is not None else single_source_distances(g2, c)
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


def _csr_rows_batch_task(
    batch: "Sequence[Tuple[int, int]]",
) -> "List[Tuple[Optional[np.ndarray], Optional[np.ndarray]]]":
    """Worker task: fresh level rows for a batch of candidates (CSR path).

    Each spec is ``(i1, i2)`` — the candidate's index in each snapshot's
    CSR view, or ``-1`` for a row the selector already cached (free).
    The worker state carries one :class:`SnapshotDelta` (and, under
    ``prune``, a :class:`PrunePlan`) shipped once per pool.  The batch's
    fresh t1 rows come from one bit-parallel msbfs block.  When both
    rows are fresh the t2 row is an incremental repair of the t1 row
    (bit-identical to a full traversal); a plan applies the static
    Δ ≥ 1 bound, since rows are precomputed before any scoring and no
    running k-th Δ exists yet — the returned row differs from the exact
    one only where Δ would be ≤ 0, which scoring discards.  A candidate
    whose t1 row is cached in the parent has no level array here to
    repair from, so its t2 row comes from a second msbfs block of full
    traversals.  Budget note: batching never changes what is charged —
    each spec is still one SSSP result per fresh row, charged in-parent.
    """
    from repro.graph.incremental import repair_levels
    from repro.graph.msbfs import msbfs_levels
    from repro.graph.prune import source_bound

    state = worker_state()
    delta = state["delta"]
    plan = state.get("plan")
    t1_sources = [i1 for i1, _ in batch if i1 >= 0]
    t2_sources = [i2 for i1, i2 in batch if i1 < 0 and i2 >= 0]
    # reprolint: disable=R004 -- charged in the parent's scoring loop before dispatch (ledger stays in-parent)
    block1 = msbfs_levels(delta.csr1, t1_sources) if t1_sources else None
    # reprolint: disable=R004 -- charged in the parent's scoring loop before dispatch (ledger stays in-parent)
    block2 = msbfs_levels(delta.csr2, t2_sources) if t2_sources else None

    out: List[Tuple[Optional[np.ndarray], Optional[np.ndarray]]] = []
    pos1 = pos2 = 0
    for i1, i2 in batch:
        lv1: Optional[np.ndarray] = None
        lv2: Optional[np.ndarray] = None
        if i1 >= 0:
            assert block1 is not None
            raw1 = block1[pos1]
            pos1 += 1
            lv1 = raw1.astype(np.int64)
            if i2 >= 0:
                if plan is not None and source_bound(raw1, plan) < 1:
                    lv2 = lv1
                elif plan is not None:
                    # reprolint: disable=R004 -- the repaired t2 row is the second half of the candidate's SSSP pair, charged in-parent
                    lv2 = repair_levels(
                        delta, raw1, max_level=int(raw1.max()) - 1
                    )[delta.mapping].astype(np.int64)
                else:
                    # reprolint: disable=R004 -- the repaired t2 row is the second half of the candidate's SSSP pair, charged in-parent
                    lv2 = repair_levels(delta, raw1)[delta.mapping].astype(
                        np.int64
                    )
        if i2 >= 0 and lv2 is None:
            assert block2 is not None
            lv2 = block2[pos2][delta.mapping].astype(np.int64)
            pos2 += 1
        out.append((lv1, lv2))
    return out


def _score_candidates_csr(
    g1: Graph, g2: Graph, candidates: Sequence[Node],
    result: "SelectionResult", budget: SPBudget,
    workers: int = 1, prune: bool = False, k: int = 0,
    shm_run_id: Optional[str] = None,
) -> Dict[tuple, ConvergingPair]:
    """Vectorised scoring path for unweighted snapshots.

    Distance rows — cached dicts from the selector or freshly charged
    CSR BFS runs — are held as level arrays aligned to ``G_t1``'s node
    order, and each candidate's Δ vector is a single numpy subtraction.
    Fresh t1 rows come from the bit-parallel multi-source BFS
    (:mod:`repro.graph.msbfs`), up to 64 candidates per sweep.  A
    candidate needing both rows pays that t1 traversal plus an
    incremental repair into the t2 row (:mod:`repro.graph.incremental`)
    through a :class:`SnapshotDelta` built once per run; a candidate
    whose t1 row came cached from the selector falls back to a full t2
    traversal.  The budget accounting is identical to the dict path
    either way: a cached row is free, a missing one is charged to
    ``topk`` on its snapshot, one record per row in candidate order —
    the repair is an implementation detail of *computing* the charged
    t2 row, never a way to skip its charge.  With ``workers > 1`` the
    fresh rows are computed by a process pool first (the delta ships to
    each worker once, via the pool initializer); charging and scoring
    stay in the parent, in candidate order.

    Each candidate's positive-Δ hits stay numpy arrays; a pair of two
    candidates keeps the sighting of whichever comes first, exactly as
    the dict path does.  The returned map then holds only the pairs
    whose Δ reaches the ``k``-th largest over all scored pairs (every
    pair for ``k=0``), in candidate-then-index order.  Every dropped
    pair sorts after all of them, so the caller's stable ``sort_key``
    sort and ``[:k]`` return the same list, ties at the k-th Δ
    included.

    ``prune=True`` (with ``k``, the number of pairs the caller will
    keep) turns on Δ-aware pruning from :mod:`repro.graph.prune`.
    Serially computed t2 rows are skipped or level-cut against the
    *running* k-th best Δ of the pairs scored so far; pooled rows are
    precomputed before any scoring, so workers receive the plan and
    apply only the static Δ ≥ 1 bound.  Either way the scored map may
    silently lack (or under-score) pairs that provably rank strictly
    below the final k-th Δ — the caller's ``ranked[:k]`` truncation is
    unaffected, which the differential harness pins byte-for-byte.
    Budget charges are untouched: a pruned traversal charges exactly
    like the unpruned one it replaces.
    """
    from repro.graph.csr import UNREACHED, bfs_levels
    from repro.graph.incremental import SnapshotDelta, repair_levels
    from repro.graph.msbfs import iter_msbfs_rows
    from repro.graph.prune import (
        KthTracker,
        PrunePlan,
        bounded_bfs_levels,
        source_bound,
    )

    delta = SnapshotDelta.from_graphs(g1, g2)
    csr1, csr2 = delta.csr1, delta.csr2
    n = csr1.num_nodes
    nodes = csr1.nodes
    align = delta.mapping
    plan = PrunePlan.from_delta(delta) if prune else None
    tracker = KthTracker(k) if prune else None

    fresh: Dict[Node, tuple] = {}
    if workers > 1:
        specs = [
            (
                csr1.index[c] if result.d1_rows.get(c) is None else -1,
                csr2.index[c] if result.d2_rows.get(c) is None else -1,
            )
            for c in candidates
        ]
        if any(i1 >= 0 or i2 >= 0 for i1, i2 in specs):
            # Batch width balances the bit-parallel sweep (wider = fewer
            # frontier loops) against pool utilisation (small candidate
            # sets must still spread across the workers).
            width = max(1, min(64, -(-len(specs) // (workers * 4))))
            batches = [
                specs[i : i + width] for i in range(0, len(specs), width)
            ]
            executor = ParallelExecutor(
                workers,
                state={"delta": delta, "plan": plan},
                shm_run_id=shm_run_id,
            )
            row_batches = executor.map(
                _csr_rows_batch_task, batches, unit="topk.sssp"
            )
            rows = [row for batch in row_batches for row in batch]
            fresh = dict(zip(candidates, rows))

    def row_to_levels(row: Dict[Node, float], index: Dict[Node, int]) -> np.ndarray:
        # Nodes outside G_t1 land in a spare last slot, cut off below.
        levels = np.full(n + 1, UNREACHED, dtype=np.int64)
        at = np.fromiter((index.get(v, n) for v in row), np.int64, len(row))
        levels[at] = np.fromiter(row.values(), np.int64, len(row))
        return levels[:n]

    # Serial fresh t1 rows, consumed in candidate order: one bit-parallel
    # sweep advances up to 64 of them (bit-identical to bfs_levels).
    t1_rows = iter_msbfs_rows(csr1, [
        csr1.index[c] for c in candidates
        if result.d1_rows.get(c) is None and c not in fresh
    ])
    is_candidate = np.zeros(n, dtype=bool)
    is_candidate[
        np.fromiter((csr1.index[c] for c in candidates), dtype=np.int64)
    ] = True
    # (i, j): candidate i scored its pair with candidate j, so j's later
    # sighting of the same pair is a duplicate.
    seen: Set[Tuple[int, int]] = set()
    targets: List[np.ndarray] = []
    firsts: List[np.ndarray] = []
    seconds: List[np.ndarray] = []
    for c in candidates:
        i = csr1.index[c]
        pre1, pre2 = fresh.get(c, (None, None))
        raw1: Optional[np.ndarray] = None
        cached1 = result.d1_rows.get(c)
        if cached1 is None:
            budget.charge("topk", "g1", 1)
            if pre1 is not None:
                lv1 = pre1
            else:
                raw1 = next(t1_rows)[1]
                lv1 = raw1.astype(np.int64)
        else:
            lv1 = row_to_levels(cached1, csr1.index)
        cached2 = result.d2_rows.get(c)
        if cached2 is None:
            budget.charge("topk", "g2", 1)
            if pre2 is not None:
                lv2 = pre2
            else:
                # Serial fresh row: the running k-th Δ is live here, so
                # the full dynamic prune applies.  The charge above is
                # deliberately unconditional — a skipped traversal still
                # obtained its SSSP *result* (provably all-Δ≤kth), and
                # the paper's budget counts results, not edges scanned.
                theta = tracker.threshold if tracker is not None else 0
                bound_lv1 = raw1 if raw1 is not None else lv1
                if plan is not None and tracker is not None and (
                    source_bound(bound_lv1, plan) < theta
                ):
                    lv2 = lv1
                elif raw1 is not None:
                    cut = (
                        int(raw1.max()) - theta if tracker is not None
                        else None
                    )
                    lv2 = repair_levels(delta, raw1, max_level=cut)[
                        align
                    ].astype(np.int64)
                elif tracker is not None:
                    lv2 = bounded_bfs_levels(
                        csr2, csr2.index[c], int(lv1.max()) - theta
                    )[align].astype(np.int64)
                else:
                    lv2 = bfs_levels(csr2, csr2.index[c])[align].astype(
                        np.int64
                    )
        else:
            lv2 = row_to_levels(cached2, csr1.index)
        reached = lv1 != UNREACHED
        reached[i] = False
        hits = np.flatnonzero(reached & (lv1 - lv2 > 0))
        repeats: List[int] = []
        for j in hits[is_candidate[hits]].tolist():
            if (j, i) in seen:
                repeats.append(j)
            else:
                seen.add((i, j))
        if repeats:
            hits = hits[~np.isin(hits, repeats)]
        targets.append(hits)
        firsts.append(lv1[hits])
        seconds.append(lv2[hits])
        # Only first-sighting deltas feed the tracker: offering a pair
        # from both endpoints would inflate the running k-th and
        # over-prune past the byte-identity guarantee.
        if tracker is not None:
            tracker.offer(firsts[-1] - seconds[-1])

    if not targets:
        return {}
    owner = np.repeat(np.arange(len(targets)), [t.size for t in targets])
    target = np.concatenate(targets)
    d1 = np.concatenate(firsts)
    d2 = np.concatenate(seconds)
    # A pair under the k-th largest Δ sorts after all k pairs the caller
    # keeps, so only pairs at or above it become objects.
    keep = np.arange(target.size)
    if 0 < k < target.size:
        deltas = d1 - d2
        kth = np.partition(deltas, target.size - k)[target.size - k]
        keep = np.flatnonzero(deltas >= kth)
    scored: Dict[tuple, ConvergingPair] = {}
    for p, j, x1, x2 in zip(
        owner[keep].tolist(), target[keep].tolist(),
        d1[keep].tolist(), d2[keep].tolist(),
    ):
        key = canonical_pair(candidates[p], nodes[j])
        scored[key] = ConvergingPair(key[0], key[1], x1, x2)
    return scored
