"""Landmark-based candidate selection (Section 4.2.3).

Sample ``l`` random landmarks from ``G_t1``, compute their SSSP rows in
both snapshots (2l SSSPs — Table 1's generation cost), and rank every node
``u`` by how much closer it came to the landmark set:

* **SumDiff** — the L1 norm of the per-landmark decrease vector
  ``Δ_L(u) = D_L1(u) − D_L2(u)``; a sampled estimate of how many distance
  changes ``u`` participates in (the greedy-cover intuition).
* **MaxDiff** — the L∞ norm: the single sharpest approach to any landmark.

The ``l`` landmarks themselves are returned at the head of the candidate
list: their distance rows exist in both snapshots already, so including
them is free, exactly mirroring the paper's observation that the random-
landmark budget share is "wasted" (they are rarely true endpoints) while
keeping the accounting at ``2m`` total.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.csr import UNREACHED
from repro.graph.graph import Graph
from repro.graph.landmarks import (
    LandmarkTable,
    delta_l1_norms,
    delta_linf_norms,
    landmark_delta_vectors,
)
from repro.graph.pair import SnapshotPair, pair_rows
from repro.selection.base import (
    GENERATION_PHASE,
    CandidateSelector,
    SelectionResult,
    register_selector,
)

Node = Hashable
Rows = Dict[Node, np.ndarray]

#: The paper fixes l = 10 for all landmark-based algorithms ("a larger
#: number of landmarks did not improve the performance").
DEFAULT_NUM_LANDMARKS = 10


def effective_num_landmarks(l: int, m: int, tables: int = 1) -> int:
    """Clamp the landmark count to what budget ``m`` can sustain.

    A selector building ``tables`` landmark sets (1 for plain/hybrid, 3
    for the classifier) spends ``tables * 2l`` generation SSSPs out of
    ``2m``; we keep at least half the budget for candidates.
    """
    if m < 2:
        raise ValueError(
            f"landmark-based selection needs a budget of m >= 2, got m={m}"
        )
    return max(1, min(l, m // (2 * tables)))


def sample_landmarks(
    g1: Graph, l: int, rng: np.random.Generator
) -> List[Node]:
    """``l`` distinct uniform-random landmarks from ``G_t1``'s nodes."""
    nodes = list(g1.nodes())
    if l > len(nodes):
        raise ValueError(f"cannot sample {l} landmarks from {len(nodes)} nodes")
    idx = rng.choice(len(nodes), size=l, replace=False)
    return [nodes[i] for i in sorted(int(i) for i in idx)]


def landmark_rows(
    pair: SnapshotPair,
    landmarks: Sequence[Node],
    budget: SPBudget,
    snapshot: str,
    phase: str = GENERATION_PHASE,
) -> Rows:
    """One charged SSSP row per landmark on ``snapshot``, in one block."""
    for _ in landmarks:
        budget.charge(phase, snapshot, 1)
    return dict(zip(landmarks, pair_rows(pair, landmarks, snapshot)))


def tables_from_rows(
    landmarks: Sequence[Node],
    universe: Sequence[Node],
    rows1: Rows,
    rows2: Rows,
) -> Tuple[LandmarkTable, LandmarkTable]:
    """Both snapshots' :class:`LandmarkTable` from rows in ``universe`` order."""
    mats = []
    for rows in (rows1, rows2):
        mat = np.full((len(universe), len(landmarks)), np.inf, np.float32)
        for j, w in enumerate(landmarks):
            mat[:, j] = np.where(rows[w] == UNREACHED, np.inf, rows[w])
        mats.append(LandmarkTable(landmarks, universe, mat))
    return mats[0], mats[1]


def landmark_delta_norms(
    universe: Sequence[Node],
    landmarks: Sequence[Node],
    rows1: Rows,
    rows2: Rows,
    norm: str,
) -> np.ndarray:
    """Per-node landmark-delta norm (``norm`` is ``"l1"`` or ``"linf"``)."""
    if norm not in ("l1", "linf"):
        raise ValueError(f"norm must be 'l1' or 'linf', got {norm!r}")
    delta = landmark_delta_vectors(
        *tables_from_rows(landmarks, universe, rows1, rows2)
    )
    return delta_l1_norms(delta) if norm == "l1" else delta_linf_norms(delta)


def landmark_delta_scores(
    universe: Sequence[Node],
    landmarks: Sequence[Node],
    rows1: Rows,
    rows2: Rows,
    norm: str,
) -> Dict[Node, float]:
    """:func:`landmark_delta_norms` keyed by node."""
    norms = landmark_delta_norms(universe, landmarks, rows1, rows2, norm)
    return dict(zip(universe, norms.tolist()))


def assemble_candidates(
    landmarks: Sequence[Node], scores: Dict[Node, float], m: int
) -> List[Node]:
    """Landmarks first (free rows), then top-scored non-landmarks up to m."""
    landmark_set = set(landmarks)
    ranked = sorted(
        (u for u in scores if u not in landmark_set),
        key=lambda u: (-scores[u], repr(u)),
    )
    room = max(0, m - len(landmarks))
    return list(landmarks)[:m] + ranked[:room]


class _RandomLandmarkSelector(CandidateSelector):
    """Shared select() for SumDiff / MaxDiff with random landmarks."""

    norm: str = "l1"

    def __init__(self, num_landmarks: int = DEFAULT_NUM_LANDMARKS) -> None:
        if num_landmarks < 1:
            raise ValueError(
                f"num_landmarks must be >= 1, got {num_landmarks}"
            )
        self.num_landmarks = num_landmarks

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
        pair = SnapshotPair.of(g1, g2, pair)
        l = effective_num_landmarks(self.num_landmarks, m)
        landmarks = sample_landmarks(g1, l, rng)
        rows1 = landmark_rows(pair, landmarks, budget, "g1")
        rows2 = landmark_rows(pair, landmarks, budget, "g2")
        scores = landmark_delta_scores(
            pair.nodes, landmarks, rows1, rows2, self.norm
        )
        candidates = assemble_candidates(landmarks, scores, m)
        return SelectionResult(
            candidates=candidates, d1_rows=rows1, d2_rows=rows2
        )


@register_selector("SumDiff")
class SumDiffSelector(_RandomLandmarkSelector):
    """L1-norm landmark selector — approximates greedy-cover sampling."""

    norm = "l1"


@register_selector("MaxDiff")
class MaxDiffSelector(_RandomLandmarkSelector):
    """L∞-norm landmark selector — the sharpest single approach."""

    norm = "linf"
