"""Coordinate-embedding candidate selection (beyond-paper extension).

Section 2 of the paper points at Orion [25] — which embeds a graph into a
low-dimensional Euclidean space from landmark distances — as an
"interesting to consider" landmark-selection direction it leaves out of
scope.  This module builds that extension on the same budget accounting
as the landmark family:

1. pick ``l`` landmarks (dispersion-seeded by default, like the hybrids);
2. embed the landmarks by classical multidimensional scaling (MDS) on
   their pairwise ``G_t1`` distances;
3. place every node in both snapshots by least-squares trilateration
   against its landmark distance vectors;
4. rank nodes by the Euclidean *displacement* of their position between
   the two embeddings — a node whose coordinates jumped moved closer to
   some region of the graph.

Cost: identical to the hybrid selectors — ``l`` SSSPs on ``G_t1`` (rows
reused) plus ``l`` on ``G_t2``, i.e. a ``2l`` generation phase, with the
landmarks riding along as free candidates.  The ablation benchmark
compares it against SumDiff; on the catalog datasets displacement is a
weaker signal than the L1 delta norm, which is consistent with the
paper's choice to rank on raw distance changes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.csr import UNREACHED
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
    landmark_rows,
)

Node = Hashable


def classical_mds(
    distances: np.ndarray, dimensions: int
) -> np.ndarray:
    """Embed points from a squared-distance-friendly matrix via MDS.

    Classical (Torgerson) multidimensional scaling: double-center the
    squared distance matrix and take the top eigenpairs.  Returns an
    ``(n, dimensions)`` coordinate array; dimensions beyond the matrix
    rank come out as zero columns.
    """
    n = distances.shape[0]
    if distances.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {distances.shape}")
    if dimensions < 1:
        raise ValueError(f"dimensions must be >= 1, got {dimensions}")
    sq = np.square(distances, dtype=float)
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * centering @ sq @ centering
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1][:dimensions]
    coords = eigvecs[:, order] * np.sqrt(np.maximum(eigvals[order], 0.0))
    if coords.shape[1] < dimensions:  # pragma: no cover - defensive
        pad = np.zeros((n, dimensions - coords.shape[1]))
        coords = np.hstack([coords, pad])
    return coords


def trilaterate(
    landmark_coords: np.ndarray, distances: np.ndarray
) -> np.ndarray:
    """Least-squares position of a point from landmark distances.

    Linearises the system ``||x - L_i||² = d_i²`` by subtracting the
    first landmark's equation (the standard trilateration trick) and
    solves the resulting linear least squares.  With fewer than
    ``dimensions + 1`` finite distances the point is placed at the
    centroid of the reachable landmarks (graceful degradation for
    fringe-component nodes).
    """
    finite = np.isfinite(distances)
    coords = landmark_coords[finite]
    dists = distances[finite]
    dims = landmark_coords.shape[1]
    if coords.shape[0] < dims + 1:
        if coords.shape[0] == 0:
            return np.zeros(dims)
        return coords.mean(axis=0)
    ref, dref = coords[0], dists[0]
    a = 2.0 * (coords[1:] - ref)
    b = (
        np.square(dref)
        - np.square(dists[1:])
        + np.sum(np.square(coords[1:]), axis=1)
        - np.sum(np.square(ref))
    )
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    return solution


@register_selector("CoordDiff")
class CoordDiffSelector(CandidateSelector):
    """Rank nodes by embedded-coordinate displacement between snapshots.

    Parameters
    ----------
    num_landmarks:
        Landmark count l (paper default 10; clamped to the budget).
    dimensions:
        Embedding dimensionality (Orion uses a handful; default 4).
    landmark_policy:
        ``"maxmin"`` (default), ``"maxavg"``, or ``"random"`` seeding.
    """

    def __init__(
        self,
        num_landmarks: int = DEFAULT_NUM_LANDMARKS,
        dimensions: int = 4,
        landmark_policy: str = "maxmin",
    ) -> None:
        if num_landmarks < 1:
            raise ValueError(f"num_landmarks must be >= 1, got {num_landmarks}")
        if dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {dimensions}")
        if landmark_policy not in ("maxmin", "maxavg", "random"):
            raise ValueError(
                f"landmark_policy must be maxmin/maxavg/random, "
                f"got {landmark_policy!r}"
            )
        self.num_landmarks = num_landmarks
        self.dimensions = dimensions
        self.landmark_policy = landmark_policy

    def _pick_landmarks(
        self,
        pair: SnapshotPair,
        l: int,
        budget: SPBudget,
        rng: np.random.Generator,
    ) -> Tuple[List[Node], Dict[Node, np.ndarray]]:
        if self.landmark_policy == "random":
            from repro.selection.landmark import sample_landmarks

            landmarks = sample_landmarks(pair.g1, l, rng)
            rows1 = landmark_rows(pair, landmarks, budget, "g1")
            return landmarks, rows1
        mode = "min" if self.landmark_policy == "maxmin" else "avg"
        return greedy_dispersion(pair, l, mode, budget, rng)

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
        landmarks, rows1 = self._pick_landmarks(pair, l, budget, rng)
        rows2 = landmark_rows(pair, landmarks, budget, "g2")
        if not landmarks:  # G_t1 has no nodes
            return SelectionResult(candidates=[])

        # Landmark skeleton from t1 pairwise distances (rows1 contains
        # every landmark-to-landmark distance already).  Unreachable
        # counts as n here and as inf in the per-node vectors below.
        lv1 = np.stack([rows1[w] for w in landmarks])
        lv2 = np.stack([rows2[w] for w in landmarks])
        at = [pair.index[w] for w in landmarks]
        skeleton = np.where(
            lv1[:, at] == UNREACHED, float(len(pair.nodes)), lv1[:, at]
        )
        np.fill_diagonal(skeleton, 0.0)
        dims = min(self.dimensions, max(1, l - 1))
        landmark_coords = classical_mds(skeleton, dims)

        # Per-node displacement between the two trilaterated positions.
        vec1 = np.where(lv1 == UNREACHED, np.inf, lv1).T.copy()
        vec2 = np.where(lv2 == UNREACHED, np.inf, lv2).T.copy()
        scores: Dict[Node, float] = {}
        for u, v1, v2 in zip(pair.nodes, vec1, vec2):
            p1 = trilaterate(landmark_coords, v1)
            p2 = trilaterate(landmark_coords, v2)
            scores[u] = float(np.linalg.norm(p1 - p2))

        candidates = assemble_candidates(landmarks, scores, m)
        return SelectionResult(
            candidates=candidates, d1_rows=rows1, d2_rows=rows2
        )
