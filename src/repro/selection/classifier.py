"""Classification-based candidate selection (Sections 4.2.5 & 5.3).

A trained :class:`~repro.ml.training.TrainedModel` predicts, for every
node of the evaluation ``G_t1``, the probability that it belongs to the
greedy vertex cover of the pair graph; nodes are nominated in decreasing
probability order.

Budget accounting (Table 1's "Classification-based" row): producing the
features needs three landmark tables — ``3 · 2l`` generation SSSPs — so
only ``m − 3l`` fresh candidates fit in the remaining budget.  As with the
other landmark approaches, the 3l landmark nodes ride along for free
(their rows exist in both snapshots), which is the "handicap ... they are
able to catch up" dynamic of Figure 3.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.selection.base import (
    CandidateSelector,
    SelectionResult,
    register_selector,
)
from repro.selection.landmark import effective_num_landmarks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ml.training import TrainedModel

# NOTE: repro.ml imports are deferred to call time throughout this module:
# repro.ml.features depends on the dispersion/landmark selectors, so a
# module-level import here would close an import cycle.


class _ClassifierSelector(CandidateSelector):
    """Shared select() for the local and global classifier selectors."""

    def __init__(self, model: "TrainedModel") -> None:
        from repro.ml.training import TrainedModel

        if not isinstance(model, TrainedModel):
            raise TypeError(
                f"model must be a TrainedModel, got {type(model).__name__}"
            )
        self._validate_model(model)
        self.model = model

    def _validate_model(self, model: "TrainedModel") -> None:
        raise NotImplementedError

    def _feature_matrix(self, matrix: np.ndarray, g1: Graph, g2: Graph):
        return matrix

    def select(
        self,
        g1: Graph,
        g2: Graph,
        m: int,
        budget: SPBudget,
        rng: Optional[np.random.Generator] = None,
        *, pair: Optional[SnapshotPair] = None,
    ) -> SelectionResult:
        from repro.ml.features import extract_node_features

        self._check_m(m)
        # Seeded default: an rng-less call must still be reproducible
        rng = rng if rng is not None else np.random.default_rng(0)
        l = effective_num_landmarks(self.model.num_landmarks, m, tables=3)
        feats = extract_node_features(g1, g2, l, rng, budget=budget, pair=pair)
        matrix = self._feature_matrix(feats.matrix, g1, g2)
        proba = self.model.score_nodes(matrix)

        order = sorted(
            range(len(feats.nodes)),
            key=lambda i: (-proba[i], repr(feats.nodes[i])),
        )
        landmark_set = set(feats.landmark_nodes)
        candidates = list(feats.landmark_nodes)
        # Each fresh candidate costs two SSSPs in the top-k phase.  When
        # landmark policies happened to pick overlapping nodes the cached
        # set is smaller than 3l but the 6l generation SSSPs were still
        # paid, so cap the fresh picks by the *remaining* budget too.
        room = min(m - len(candidates), budget.remaining // 2)
        for i in order:
            if room <= 0:
                break
            u = feats.nodes[i]
            if u in landmark_set:
                continue
            candidates.append(u)
            room -= 1
        return SelectionResult(
            candidates=candidates[:m],
            d1_rows=feats.d1_rows,
            d2_rows=feats.d2_rows,
        )


@register_selector("L-Classifier")
class LocalClassifierSelector(_ClassifierSelector):
    """Per-dataset classifier over the 10 node features."""

    def _validate_model(self, model: "TrainedModel") -> None:
        if model.uses_graph_features:
            raise ValueError(
                "L-Classifier needs a node-feature model; this model was "
                "trained with graph-level features (use G-Classifier)"
            )


@register_selector("G-Classifier")
class GlobalClassifierSelector(_ClassifierSelector):
    """Cross-dataset classifier with graph-level features appended."""

    def _validate_model(self, model: "TrainedModel") -> None:
        if not model.uses_graph_features:
            raise ValueError(
                "G-Classifier needs a model trained with graph-level "
                "features (use L-Classifier for node-only models)"
            )

    def _feature_matrix(self, matrix: np.ndarray, g1: Graph, g2: Graph):
        from repro.ml.features import append_graph_features, graph_level_features

        return append_graph_features(matrix, graph_level_features(g1, g2))
