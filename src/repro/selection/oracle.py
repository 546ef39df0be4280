"""Oracle selectors — cheating upper bounds for evaluation plots.

These selectors peek at the ground truth (the pair graph ``G^p_k``) that
no real algorithm has access to.  They exist purely to draw the "best
possible" line in cost–coverage plots: the greedy max-coverage solution
over ``G^p_k`` is the yardstick every practical selector is measured
against (and the target the classifiers are trained to imitate).

They are *not* registered in the selector registry: requesting them must
be an explicit, visible act in experiment code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.budget import SPBudget
from repro.core.cover import greedy_max_coverage
from repro.core.pairgraph import PairGraph
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.selection.base import CandidateSelector, SelectionResult


class GreedyCoverOracle(CandidateSelector):
    """Selects the greedy max-coverage nodes of the true pair graph.

    Parameters
    ----------
    pair_graph:
        The ground-truth ``G^p_k`` (from
        :func:`repro.core.pairs.top_k_converging_pairs` or the threshold
        variant).
    """

    name = "GreedyCoverOracle"

    def __init__(self, pair_graph: PairGraph) -> None:
        self.pair_graph = pair_graph

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
        return SelectionResult(
            candidates=greedy_max_coverage(self.pair_graph, m)
        )
