"""Feature extraction for the classification-based selectors.

Per-node features (Section 5.3): the degree of the node in both snapshots,
the degree difference and relative difference, and the L1 / L∞ norms of
the landmark-delta vector for **three** landmark policies — random,
MaxMin-dispersed, and MaxAvg-dispersed.  Ten features total, independent
of the landmark count l (the norms collapse the l-vector).

Graph-level features for the global classifier: density and maximum
degree of both snapshots — four constants appended to every node row of
that graph.

Cost: building the three landmark tables takes ``3 · 2l`` SSSPs, the
``3·2l`` setup charge Table 1 lists for the classification approach.
When extraction runs inside a budgeted selection the caller passes the
live budget; offline training passes an unlimited one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair
from repro.selection.base import GENERATION_PHASE
from repro.selection.dispersion import greedy_dispersion
from repro.selection.landmark import (
    landmark_delta_norms,
    landmark_rows,
    sample_landmarks,
)

Node = Hashable

#: Node-level feature names, in column order.
NODE_FEATURE_NAMES = (
    "deg_t1",
    "deg_t2",
    "deg_diff",
    "deg_rel",
    "rnd_l1",
    "rnd_linf",
    "maxmin_l1",
    "maxmin_linf",
    "maxavg_l1",
    "maxavg_linf",
)

#: Graph-level feature names appended by the global classifier.
GRAPH_FEATURE_NAMES = (
    "density_t1",
    "density_t2",
    "max_degree_t1",
    "max_degree_t2",
)


@dataclass
class FeatureResult:
    """Node features plus the landmark bookkeeping a selector can reuse.

    Attributes
    ----------
    nodes:
        Row order of :attr:`matrix` (all nodes of ``G_t1``).
    matrix:
        Raw (unscaled) feature matrix, shape ``(len(nodes), 10)``.
    landmark_nodes:
        All 3l landmark nodes, random + MaxMin + MaxAvg in that order
        (duplicates possible across policies; preserved in order, deduped).
    d1_rows / d2_rows:
        Cached SSSP rows of every landmark in each snapshot
        (:func:`~repro.graph.pair.pair_rows` arrays).
    """

    nodes: List[Node]
    matrix: np.ndarray
    landmark_nodes: List[Node]
    d1_rows: Dict[Node, np.ndarray]
    d2_rows: Dict[Node, np.ndarray]


def extract_node_features(
    g1: Graph,
    g2: Graph,
    num_landmarks: int,
    rng: np.random.Generator,
    budget: Optional[SPBudget] = None,
    phase: str = GENERATION_PHASE,
    pair: Optional[SnapshotPair] = None,
) -> FeatureResult:
    """Compute the 10 node features for every node of ``G_t1``.

    Charges ``6 * num_landmarks`` SSSPs to ``budget`` (an unlimited budget
    is created when ``None`` — the offline-training path).  Rows come
    from ``pair`` (built over ``g1``/``g2`` when ``None``).
    """
    if num_landmarks < 1:
        raise ValueError(f"num_landmarks must be >= 1, got {num_landmarks}")
    budget = budget if budget is not None else SPBudget(None)
    pair = SnapshotPair.of(g1, g2, pair)
    nodes = pair.nodes

    d1_rows: Dict[Node, np.ndarray] = {}
    d2_rows: Dict[Node, np.ndarray] = {}
    landmark_nodes: List[Node] = []

    # Random landmarks: l SSSPs on each snapshot.
    rnd = sample_landmarks(g1, num_landmarks, rng)
    rnd_rows1 = landmark_rows(pair, rnd, budget, "g1", phase)
    rnd_rows2 = landmark_rows(pair, rnd, budget, "g2", phase)
    policies = [(rnd, rnd_rows1, rnd_rows2)]

    # Dispersion landmarks (MaxMin, then MaxAvg): the greedy's G_t1 rows
    # double as the table.
    for mode in ("min", "avg"):
        picks, rows1 = greedy_dispersion(
            pair, num_landmarks, mode, budget, rng, phase=phase
        )
        rows2 = landmark_rows(pair, picks, budget, "g2", phase)
        policies.append((picks, rows1, rows2))

    deg1 = np.fromiter((g1.degree(u) for u in nodes), float, len(nodes))
    deg2 = np.fromiter((g2.degree(u) for u in nodes), float, len(nodes))
    columns = [deg1, deg2, deg2 - deg1, (deg2 - deg1) / np.maximum(deg1, 1)]
    for picks, rows1, rows2 in policies:
        for norm in ("l1", "linf"):
            columns.append(
                landmark_delta_norms(nodes, picks, rows1, rows2, norm)
            )
        for w in picks:
            if w not in d1_rows:
                landmark_nodes.append(w)
            d1_rows[w] = rows1[w]
            d2_rows[w] = rows2[w]

    return FeatureResult(
        nodes=list(nodes),
        matrix=np.column_stack(columns),
        landmark_nodes=landmark_nodes,
        d1_rows=d1_rows,
        d2_rows=d2_rows,
    )


def graph_level_features(g1: Graph, g2: Graph) -> np.ndarray:
    """The four dataset-characteristic features of the global classifier."""
    return np.array(
        [
            g1.density(),
            g2.density(),
            float(g1.max_degree()),
            float(g2.max_degree()),
        ],
        dtype=float,
    )


def append_graph_features(matrix: np.ndarray, graph_feats: np.ndarray) -> np.ndarray:
    """Broadcast the graph-level feature row onto every node row."""
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    tiled = np.tile(graph_feats, (matrix.shape[0], 1))
    return np.hstack([matrix, tiled])
