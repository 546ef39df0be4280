"""Dispersion-based candidate selection (Section 4.2.2).

Both dispersion objectives — maximise the *average* pairwise distance
(MaxAvg, Eq. 1) or the *minimum* pairwise distance (MaxMin, Eq. 2) of the
selected set — are NP-hard even given all distances, so the paper (and we)
use the standard greedy: repeatedly add the node that maximises the
dispersion objective against the nodes selected so far.

Cost model (Table 1's "Dispersion-based" row): the greedy needs one SSSP
on ``G_t1`` per selected node — ``m`` in total — and *those same rows are
the candidates' t1 distance rows*, so the top-k phase only pays ``m`` more
SSSPs on ``G_t2``.  Everything is charged and cached accordingly.

Implementation notes
--------------------
* The first pick is drawn uniformly at random (seeded) — the greedy is
  known to be robust to initialisation for these objectives.
* Distances to unreachable nodes are scored as ``n`` (the node count), a
  finite "farther than any real path" sentinel.  On connected snapshots
  this changes nothing; on fragmented ones (DBLP-like) it makes the greedy
  spread across components instead of dividing by infinity.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.csr import UNREACHED
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair, pair_rows
from repro.selection.base import (
    GENERATION_PHASE,
    CandidateSelector,
    SelectionResult,
    register_selector,
)

Node = Hashable


def greedy_dispersion(
    pair: SnapshotPair,
    count: int,
    mode: str,
    budget: SPBudget,
    rng: np.random.Generator,
    phase: str = GENERATION_PHASE,
) -> Tuple[List[Node], Dict[Node, np.ndarray]]:
    """Greedily pick ``count`` dispersed nodes from ``G_t1``.

    Parameters
    ----------
    pair:
        The snapshot pair (dispersion only looks at ``G_t1``).
    count:
        Number of nodes to select (clamped to ``G_t1``'s node count).
    mode:
        ``"min"`` for MaxMin (maximise the minimum distance to the
        selected set) or ``"avg"`` for MaxAvg (maximise the average).
    budget:
        Charged one ``G_t1`` SSSP per selected node under ``phase``.
    rng:
        Seeded generator for the initial pick.

    Returns
    -------
    (selected, d1_rows):
        The picks in selection order and their ``G_t1`` distance rows —
        callers reuse the rows so the SSSPs are never paid twice.
    """
    if mode not in ("min", "avg"):
        raise ValueError(f"mode must be 'min' or 'avg', got {mode!r}")
    nodes = pair.nodes
    count = min(count, len(nodes))
    if count == 0:
        return [], {}
    far = float(len(nodes))  # finite sentinel for "unreachable"

    first = nodes[int(rng.integers(len(nodes)))]
    selected: List[Node] = []
    rows: Dict[Node, np.ndarray] = {}

    # Aggregates of distance-to-selected-set per node.
    min_dist = np.full(len(nodes), np.inf)
    sum_dist = np.zeros(len(nodes))
    chosen = np.zeros(len(nodes), dtype=bool)

    current = first
    for _ in range(count):
        budget.charge(phase, "g1", 1)
        row = pair_rows(pair, [current], "g1")[0]
        rows[current] = row
        selected.append(current)
        chosen[pair.index[current]] = True

        dist_vec = np.where(row == UNREACHED, far, row)
        np.minimum(min_dist, dist_vec, out=min_dist)
        sum_dist += dist_vec

        if len(selected) == count:
            break
        score = min_dist if mode == "min" else sum_dist / len(selected)
        score = np.where(chosen, -np.inf, score)
        current = nodes[int(score.argmax())]
    return selected, rows


class _DispersionSelector(CandidateSelector):
    """Shared select() for the two dispersion objectives."""

    mode: str = "min"

    def select(
        self,
        g1: Graph,
        g2: Graph,
        m: int,
        budget: SPBudget,
        rng: Optional[np.random.Generator] = None,
        *, pair: Optional[SnapshotPair] = None,
    ) -> SelectionResult:
        self._check_m(m)
        # Seeded default: an rng-less call must still be reproducible
        rng = rng if rng is not None else np.random.default_rng(0)
        selected, rows = greedy_dispersion(
            SnapshotPair.of(g1, g2, pair), m, self.mode, budget, rng
        )
        return SelectionResult(candidates=selected, d1_rows=rows)


@register_selector("MaxMin")
class MaxMinSelector(_DispersionSelector):
    """Greedy MaxMin dispersion: candidates that *cover* the graph."""

    mode = "min"


@register_selector("MaxAvg")
class MaxAvgSelector(_DispersionSelector):
    """Greedy MaxAvg dispersion: candidates on the graph's *periphery*."""

    mode = "avg"
