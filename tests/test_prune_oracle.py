"""Pruning-equivalence differential harness.

The Δ-aware pruning layer of the ground-truth engines promises
byte-identical output across the engine matrix (prune × incremental ×
CLI); this suite pins it cell by cell.
"""

from __future__ import annotations

import pytest

from conftest import path_graph, random_snapshot_pair
from repro.cli import main
from repro.core.pairs import (
    converging_pairs_at_threshold,
    top_k_converging_pairs,
)


# ----------------------------------------------------------------------
# Ground-truth engines: prune × engine matrix
# ----------------------------------------------------------------------
class TestGroundTruthMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_top_k_identical_across_the_matrix(self, seed, k):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = top_k_converging_pairs(g1, g2, k)
        for engine in ("incremental", "csr"):
            for prune in (False, True):
                assert (
                    top_k_converging_pairs(
                        g1, g2, k, engine=engine, prune=prune
                    )
                    == ref
                ), f"engine={engine} prune={prune}"

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("delta_min", [1, 2, 2.5])
    def test_threshold_identical_across_the_matrix(self, seed, delta_min):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = converging_pairs_at_threshold(g1, g2, delta_min)
        for engine in ("incremental", "csr"):
            for prune in (False, True):
                assert (
                    converging_pairs_at_threshold(
                        g1, g2, delta_min, engine=engine, prune=prune
                    )
                    == ref
                ), f"engine={engine} prune={prune}"

    def test_no_inserted_edges_fully_pruned_run(self):
        # Identical snapshots: every source is provably skippable, so the
        # pruned pass does no t2 work at all — and must still agree.
        g = path_graph(30)
        assert top_k_converging_pairs(g, g.copy(), 5, prune=True) == []
        assert top_k_converging_pairs(g, g.copy(), 5) == []


# ----------------------------------------------------------------------
# CLI truth path: --prune output is byte-identical
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("prune-cli") / "stream.tsv"
    rc = main(["generate", "facebook", "--scale", "0.2",
               "--out", str(path)])
    assert rc == 0
    return path


class TestCLIByteIdentity:
    @pytest.mark.parametrize("engine", ["auto", "incremental", "csr"])
    def test_truth_top_k_identical(self, engine, stream_path, capsys):
        capsys.readouterr()
        outputs = {}
        for flags in ((), ("--prune",)):
            rc = main(["truth", str(stream_path), "--k", "15",
                       "--engine", engine, *flags])
            assert rc == 0
            outputs[flags] = capsys.readouterr().out
        assert outputs[("--prune",)] == outputs[()]

    def test_truth_threshold_identical(self, stream_path, capsys):
        capsys.readouterr()
        outputs = {}
        for flags in ((), ("--prune",)):
            rc = main(["truth", str(stream_path), "--delta-offset", "2",
                       *flags])
            assert rc == 0
            outputs[flags] = capsys.readouterr().out
        assert outputs[("--prune",)] == outputs[()]

    def test_prune_with_dict_engine_is_a_usage_error(
        self, stream_path, capsys
    ):
        rc = main(["truth", str(stream_path), "--k", "5",
                   "--engine", "dict", "--prune"])
        assert rc == 2
        assert "--prune" in capsys.readouterr().err
