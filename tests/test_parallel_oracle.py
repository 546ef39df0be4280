"""Differential-oracle tests for the parallel SSSP execution layer.

Every parallel driver must produce results **equal to serial execution**
(bit-identical matrices, identical pair lists and budget ledgers, and —
at the report level — byte-identical exports) across worker counts, and
both must agree with the networkx oracle on seeded random graphs.
"""

from __future__ import annotations

import json
import os

import networkx as nx
import numpy as np
import pytest

from conftest import random_snapshot_pair, to_networkx
from repro.cli import main
from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.pairs import top_k_converging_pairs
from repro.experiments import ExperimentConfig, result_to_dict
from repro.experiments import table5
from repro.experiments.runner import coverage_cells
from repro.graph.apsp import all_pairs_distances
from repro.graph.csr import CSRGraph, all_sources_levels
from repro.parallel import ParallelExecutor, worker_state
from repro.selection import get_selector

# The CI matrix pins a width per cell via REPRO_TEST_WORKERS; locally
# the default set already covers serial, narrow, and wide pools.
_ENV_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
WORKER_COUNTS = tuple(
    sorted({1, 2, 4} | ({_ENV_WORKERS} if _ENV_WORKERS > 1 else set()))
)


# ----------------------------------------------------------------------
# Executor semantics (task functions must be module-level to pickle)
# ----------------------------------------------------------------------
def _offset_square(x: int) -> int:
    return x * x + worker_state().get("offset", 0)


def _fail_on_negative(x: int) -> int:
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x


class TestParallelExecutor:
    def test_results_in_input_order(self):
        items = [9, 1, 7, 3, 0, 5, 2, 8]
        expected = [x * x for x in items]
        for workers in WORKER_COUNTS:
            executor = ParallelExecutor(workers)
            assert executor.map(_offset_square, items) == expected

    def test_chunk_size_never_changes_results(self):
        items = list(range(17))
        expected = [x * x + 3 for x in items]
        for chunk_size in (1, 2, 5, 17, 50):
            executor = ParallelExecutor(
                2, state={"offset": 3}, chunk_size=chunk_size
            )
            assert executor.map(_offset_square, items) == expected

    def test_state_installed_for_serial_and_pool_runs(self):
        for workers in WORKER_COUNTS:
            executor = ParallelExecutor(workers, state={"offset": 100})
            assert executor.map(_offset_square, [2]) == [104]

    def test_empty_items(self):
        assert ParallelExecutor(4).map(_offset_square, []) == []

    def test_real_errors_stay_loud(self):
        # A genuinely failing task raises even after the degraded serial
        # recomputation — infrastructure faults degrade, bugs do not.
        executor = ParallelExecutor(2, chunk_size=2)
        with pytest.raises(ValueError, match="bad item"):
            executor.map(_fail_on_negative, [1, 2, -3, 4])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            ParallelExecutor(2, chunk_size=0)


# ----------------------------------------------------------------------
# APSP: parallel == serial == networkx
# ----------------------------------------------------------------------
class TestAPSPOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unweighted_matrix_identical_and_matches_networkx(self, seed):
        g, _ = random_snapshot_pair(num_nodes=40, num_edges=90, seed=seed)
        serial = all_pairs_distances(g)
        for workers in WORKER_COUNTS:
            parallel = all_pairs_distances(g, workers=workers)
            assert parallel.nodes == serial.nodes
            assert np.array_equal(parallel.matrix, serial.matrix)
        oracle = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        for u in serial.nodes:
            for v in serial.nodes:
                expected = oracle[u].get(v, float("inf"))
                assert serial.distance(u, v) == expected

    def test_weighted_matrix_identical_and_matches_networkx(self):
        g, _ = random_snapshot_pair(num_nodes=25, num_edges=60, seed=3)
        rng = np.random.default_rng(3)
        weighted = type(g)()
        for u, v in g.edges():
            weighted.add_edge(u, v, float(rng.integers(1, 5)))
        serial = all_pairs_distances(weighted)
        for workers in WORKER_COUNTS[1:]:
            parallel = all_pairs_distances(weighted, workers=workers)
            assert np.array_equal(parallel.matrix, serial.matrix)
        oracle = dict(
            nx.all_pairs_dijkstra_path_length(to_networkx(weighted))
        )
        for u in serial.nodes:
            for v in serial.nodes:
                expected = oracle[u].get(v, float("inf"))
                assert serial.distance(u, v) == pytest.approx(expected)

    def test_restricted_universe_identical(self):
        g1, g2 = random_snapshot_pair(num_nodes=40, num_edges=90, seed=4)
        nodes = list(g1.nodes())
        serial = all_pairs_distances(g2, nodes=nodes)
        for workers in WORKER_COUNTS[1:]:
            parallel = all_pairs_distances(g2, nodes=nodes, workers=workers)
            assert np.array_equal(parallel.matrix, serial.matrix)

    def test_all_sources_levels_identical(self):
        g, _ = random_snapshot_pair(num_nodes=50, num_edges=110, seed=5)
        csr = CSRGraph.from_graph(g)
        serial = all_sources_levels(csr)
        for workers in WORKER_COUNTS[1:]:
            assert np.array_equal(
                all_sources_levels(csr, workers=workers), serial
            )


# ----------------------------------------------------------------------
# Top-k recovery: distances match the oracle
# ----------------------------------------------------------------------
class TestTopKOracle:
    def test_pair_distances_match_networkx(self):
        g1, g2 = random_snapshot_pair(num_nodes=60, num_edges=140, seed=7)
        result = find_top_k_converging_pairs(
            g1, g2, k=15, m=12, selector=get_selector("MMSD"), seed=13,
        )
        d1 = dict(nx.all_pairs_shortest_path_length(to_networkx(g1)))
        d2 = dict(nx.all_pairs_shortest_path_length(to_networkx(g2)))
        for pair in result.pairs:
            assert pair.d1 == d1[pair.u][pair.v]
            assert pair.d2 == d2[pair.u][pair.v]
            assert pair.delta == pair.d1 - pair.d2 > 0

    def test_exact_top_k_matches_networkx_oracle(self):
        # The ground-truth engine itself against a from-scratch oracle:
        # Δ for every connected t1 pair via networkx distances.
        g1, g2 = random_snapshot_pair(num_nodes=40, num_edges=90, seed=8)
        d1 = dict(nx.all_pairs_shortest_path_length(to_networkx(g1)))
        d2 = dict(nx.all_pairs_shortest_path_length(to_networkx(g2)))
        oracle = {}
        for u in g1.nodes():
            for v, duv in d1[u].items():
                if u != v:
                    oracle[(min(u, v), max(u, v))] = duv - d2[u][v]
        positive = {p for p, delta in oracle.items() if delta > 0}
        top = top_k_converging_pairs(g1, g2, k=len(positive))
        assert {p.pair for p in top} == positive
        for p in top:
            assert p.delta == oracle[p.pair]


# ----------------------------------------------------------------------
# Coverage cells and whole-experiment reports
# ----------------------------------------------------------------------
def _tiny_config(workers: int = 1, **overrides) -> ExperimentConfig:
    defaults = dict(
        scale=0.15, budget=8, budget_sweep=(4, 8), delta_offsets=(0, 1),
        repeats=1, datasets=("facebook",), incbet_pivots=16,
        workers=workers, experiment="table5",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


CELL_SPECS = [
    ("facebook", "Degree", 8, 0),
    ("facebook", "SumDiff", 8, 0),
    ("facebook", "Degree", 4, 1),
    ("facebook", "MMSD", 8, 1),
]


class TestCoverageCellsOracle:
    def test_cells_equal_across_workers_and_chunks(self):
        serial = coverage_cells(CELL_SPECS, _tiny_config(workers=1))
        for workers in WORKER_COUNTS[1:]:
            for chunk_size in (1, 3):
                values = coverage_cells(
                    CELL_SPECS, _tiny_config(workers=workers),
                    chunk_size=chunk_size,
                )
                assert values == serial

    def test_table5_result_equal_across_workers(self):
        serial = result_to_dict(table5.run(_tiny_config(workers=1)))
        parallel = result_to_dict(table5.run(_tiny_config(workers=2)))
        assert parallel == serial


class TestCLIByteIdentity:
    """`repro experiment --workers N` output is byte-identical to serial;
    no other command takes `--workers`."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_experiment_report_and_json(self, workers, tmp_path, capsys):
        outputs = {}
        for w in (1, workers):
            json_path = tmp_path / f"table5-w{w}.json"
            rc = main([
                "experiment", "table5", "--scale", "0.15",
                "--datasets", "facebook", "--workers", str(w),
                "--json", str(json_path),
            ])
            assert rc == 0
            stdout = capsys.readouterr().out.replace(str(json_path), "")
            outputs[w] = (stdout, json_path.read_bytes())
        assert outputs[workers] == outputs[1]

    def test_workers_must_be_positive(self, capsys):
        rc = main([
            "experiment", "table5", "--scale", "0.15",
            "--datasets", "facebook", "--workers", "0",
        ])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    def test_topk_workers_flag(self, tmp_path, capsys):
        # Algorithm 1 and the stream runtime run in the calling process:
        # `topk`, `advance`, `serve` and `query` reject the flag while
        # parsing, before any input is read.
        stream = str(tmp_path / "stream.tsv")
        wal = ["--wal-dir", str(tmp_path / "wal")]
        for argv in (["topk", stream], ["advance", stream, *wal],
                     ["serve", stream, *wal],
                     ["query", "topk", stream, *wal]):
            with pytest.raises(SystemExit) as exit_:
                main([*argv, "--workers", "2"])
            assert exit_.value.code == 2
            assert "--workers" in capsys.readouterr().err


class TestCheckpointKeysWorkerIndependent:
    def test_same_checkpoint_keys_for_any_worker_count(self, tmp_path):
        """Cell checkpoint identity never encodes the execution layout."""
        from repro.resilience import CheckpointStore

        stores = {}
        for workers in (1, 2):
            directory = tmp_path / f"w{workers}"
            config = _tiny_config(
                workers=workers, checkpoint_dir=str(directory)
            )
            coverage_cells(CELL_SPECS, config)
            stores[workers] = sorted(
                json.dumps(key) for key in CheckpointStore(directory).keys()
            )
        assert stores[2] == stores[1]
        assert len(stores[1]) == len(CELL_SPECS)
