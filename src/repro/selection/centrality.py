"""Centrality-based candidate selection (Section 4.2.1).

Degree is the cheapest centrality signal: these selectors spend **zero**
SSSPs on generation (Table 1's "Degree-based" row), leaving the whole
``2m`` budget to the top-k phase.

The paper's empirical finding — reproduced by our benchmarks — is that
raw degree is close to useless (high-degree nodes are already central, so
their paths were already short), degree difference inherits the same flaw
through preferential attachment, and only the *relative* degree change is
competitive, and then mostly on dense Actors-like graphs where the top
converging pairs collapse to single new edges.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.selection.base import (
    CandidateSelector,
    SelectionResult,
    rank_take,
    register_selector,
)

Node = Hashable


class _DegreeScoreSelector(CandidateSelector):
    """Shared machinery: rank ``G_t1`` nodes by a degree-derived score."""

    def _score(self, deg1: int, deg2: int) -> float:
        raise NotImplementedError

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
        scores: Dict[Node, float] = {
            u: self._score(g1.degree(u), g2.degree(u)) for u in g1.nodes()
        }
        return SelectionResult(candidates=rank_take(scores, m))


@register_selector("Degree")
class DegreeSelector(_DegreeScoreSelector):
    """Rank by degree in the first snapshot: ``deg_t1(u)``."""

    def _score(self, deg1: int, deg2: int) -> float:
        return float(deg1)


@register_selector("DegDiff")
class DegDiffSelector(_DegreeScoreSelector):
    """Rank by absolute degree growth: ``deg_t2(u) − deg_t1(u)``."""

    def _score(self, deg1: int, deg2: int) -> float:
        return float(deg2 - deg1)


@register_selector("DegRel")
class DegRelSelector(_DegreeScoreSelector):
    """Rank by relative degree growth: ``(deg_t2(u) − deg_t1(u)) / deg_t1(u)``.

    Nodes isolated at t1 (degree 0 — possible only through explicit
    ``add_node``) are scored with denominator 1 so the ratio stays finite.
    """

    def _score(self, deg1: int, deg2: int) -> float:
        return (deg2 - deg1) / max(deg1, 1)
