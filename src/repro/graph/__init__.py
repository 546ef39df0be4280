"""Graph substrate: static graphs, temporal streams, traversals, distances.

This subpackage is the foundation everything else in :mod:`repro` is built
on.  It deliberately avoids any third-party graph library: the paper's
algorithms only need a compact undirected graph with fast neighbor
iteration, BFS/Dijkstra single-source shortest paths, connected components,
all-pairs distances for ground truth, landmark distance tables, and Brandes
betweenness for the Incidence baseline.  All of that lives here.
"""

from repro.graph.graph import Graph
from repro.graph.dynamic import EdgeEvent, TemporalGraph
from repro.graph.traversal import (
    bfs_distances,
    bfs_distances_bounded,
    bfs_distances_many,
    bfs_tree,
    bidirectional_bfs,
    dijkstra_distances,
    dijkstra_tree,
    reconstruct_path,
    shortest_path_length,
    single_source_distances,
)
from repro.graph.components import (
    connected_components,
    largest_component,
    component_membership,
    is_connected,
    same_component,
)
from repro.graph.apsp import (
    DistanceMatrix,
    all_pairs_distances,
    diameter,
    eccentricities,
)
from repro.graph.landmarks import (
    LandmarkTable,
    landmark_delta_vectors,
    landmark_distance_table,
)
from repro.graph.csr import (
    CSRGraph,
    all_sources_levels,
    bfs_distances_fast,
    bfs_levels,
)
from repro.graph.msbfs import iter_msbfs_rows, msbfs_levels
from repro.graph.pair import SnapshotPair, pair_rows
from repro.graph.incremental import SnapshotDelta, repair_levels
from repro.graph.prune import (
    KthTracker,
    PrunePlan,
    PruneStats,
    bounded_bfs_levels,
    source_bound,
)
from repro.graph.stats import (
    average_clustering,
    degree_assortativity,
    degree_gini,
    degree_histogram,
    local_clustering,
    transitivity,
)
from repro.graph.betweenness import (
    edge_betweenness,
    node_betweenness,
    approximate_edge_betweenness,
)
from repro.graph.validation import (
    GraphValidationError,
    SnapshotRepair,
    check_snapshot_pair,
    check_simple,
    repair_snapshot_pair,
)

__all__ = [
    "Graph",
    "EdgeEvent",
    "TemporalGraph",
    "bfs_distances",
    "bfs_distances_bounded",
    "bfs_distances_many",
    "bfs_tree",
    "bidirectional_bfs",
    "dijkstra_distances",
    "dijkstra_tree",
    "reconstruct_path",
    "shortest_path_length",
    "single_source_distances",
    "connected_components",
    "largest_component",
    "component_membership",
    "is_connected",
    "same_component",
    "DistanceMatrix",
    "all_pairs_distances",
    "diameter",
    "eccentricities",
    "LandmarkTable",
    "landmark_delta_vectors",
    "landmark_distance_table",
    "CSRGraph",
    "all_sources_levels",
    "bfs_distances_fast",
    "bfs_levels",
    "iter_msbfs_rows",
    "msbfs_levels",
    "SnapshotPair",
    "pair_rows",
    "SnapshotDelta",
    "repair_levels",
    "KthTracker",
    "PrunePlan",
    "PruneStats",
    "bounded_bfs_levels",
    "source_bound",
    "average_clustering",
    "degree_assortativity",
    "degree_gini",
    "degree_histogram",
    "local_clustering",
    "transitivity",
    "edge_betweenness",
    "node_betweenness",
    "approximate_edge_betweenness",
    "GraphValidationError",
    "SnapshotRepair",
    "check_snapshot_pair",
    "check_simple",
    "repair_snapshot_pair",
]
