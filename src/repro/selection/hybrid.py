"""Hybrid dispersion-seeded landmark selection (Section 4.2.4).

Identical to the landmark selectors except that the ``l`` landmarks are
chosen by greedy dispersion on ``G_t1`` instead of uniformly at random.
The paper's two motivations both fall out of the accounting here:

1. *No wasted budget* — dispersion-selected landmarks are plausible
   converging-pair endpoints themselves (peripheral / spread-out nodes),
   so the ``2l`` landmark SSSPs also buy ``l`` useful candidates.
2. *Better sensors* — landmarks that cover different regions of the graph
   register distance collapses anywhere, whereas random landmarks cluster
   in the core.

Cost split (Table 1's "Hybrid" row): dispersion costs ``l`` SSSPs on
``G_t1`` whose rows double as the landmarks' t1 tables, plus ``l`` SSSPs
on ``G_t2`` — generation is ``2l`` total, the top-k phase pays
``2(m − l)`` for the remaining candidates, totalling exactly ``2m``.

Four concrete algorithms: {MaxMin, MaxAvg} landmark policy x
{SumDiff, MaxDiff} scoring norm = MMSD, MMMD, MASD, MAMD.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.selection.base import (
    CandidateSelector,
    SelectionResult,
    register_selector,
)
from repro.selection.dispersion import greedy_dispersion
from repro.selection.landmark import (
    DEFAULT_NUM_LANDMARKS,
    assemble_candidates,
    effective_num_landmarks,
    landmark_delta_scores,
    landmark_rows,
)


class _HybridSelector(CandidateSelector):
    """Shared select() for the four dispersion x norm combinations."""

    dispersion_mode: str = "min"
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
        # Dispersion greedy: l SSSPs on G_t1, rows kept.
        landmarks, rows1 = greedy_dispersion(
            pair, l, self.dispersion_mode, budget, rng
        )
        # Landmark rows on G_t2: l more SSSPs.
        rows2 = landmark_rows(pair, landmarks, budget, "g2")
        scores = landmark_delta_scores(
            pair.nodes, landmarks, rows1, rows2, self.norm
        )
        candidates = assemble_candidates(landmarks, scores, m)
        return SelectionResult(
            candidates=candidates, d1_rows=rows1, d2_rows=rows2
        )


@register_selector("MMSD")
class MMSDSelector(_HybridSelector):
    """MaxMin-SumDiff — the paper's overall best single-feature algorithm."""

    dispersion_mode = "min"
    norm = "l1"


@register_selector("MMMD")
class MMMDSelector(_HybridSelector):
    """MaxMin-MaxDiff."""

    dispersion_mode = "min"
    norm = "linf"


@register_selector("MASD")
class MASDSelector(_HybridSelector):
    """MaxAvg-SumDiff."""

    dispersion_mode = "avg"
    norm = "l1"


@register_selector("MAMD")
class MAMDSelector(_HybridSelector):
    """MaxAvg-MaxDiff."""

    dispersion_mode = "avg"
    norm = "linf"
