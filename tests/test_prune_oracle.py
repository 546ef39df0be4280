"""Ground-truth equivalence across engines, ``prune=`` and the CLI.

``top_k_converging_pairs(prune=True)`` selects no code path, the
``csr`` engine must agree with ``dict``, and ``repro truth`` prints the
same bytes on every engine.  This suite pins it cell by cell.
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
# Ground-truth engines: top-k prune × engine matrix
# ----------------------------------------------------------------------
class TestGroundTruthMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_top_k_identical_across_the_matrix(self, seed, k):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = top_k_converging_pairs(g1, g2, k, engine="dict")
        for prune in (False, True):
            assert (
                top_k_converging_pairs(g1, g2, k, engine="csr", prune=prune)
                == ref
            ), f"prune={prune}"

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("delta_min", [1, 2, 2.5])
    def test_threshold_identical_across_the_matrix(self, seed, delta_min):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = converging_pairs_at_threshold(g1, g2, delta_min, engine="dict")
        assert (
            converging_pairs_at_threshold(g1, g2, delta_min, engine="csr")
            == ref
        )

    def test_no_inserted_edges_fully_pruned_run(self):
        # Identical snapshots: nothing converges, pruned or not.
        g = path_graph(30)
        assert top_k_converging_pairs(g, g.copy(), 5, prune=True) == []
        assert top_k_converging_pairs(g, g.copy(), 5) == []


# ----------------------------------------------------------------------
# CLI truth path: every engine prints the same bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("prune-cli") / "stream.tsv"
    rc = main(["generate", "facebook", "--scale", "0.2",
               "--out", str(path)])
    assert rc == 0
    return path


def _truth(stream_path, capsys, *flags):
    assert main(["truth", str(stream_path), *flags]) == 0
    return capsys.readouterr().out


class TestCLIByteIdentity:
    @pytest.mark.parametrize("engine", ["auto", "csr"])
    def test_truth_top_k_identical(self, engine, stream_path, capsys):
        capsys.readouterr()
        flags = ("--k", "15", "--engine")
        assert (_truth(stream_path, capsys, *flags, engine)
                == _truth(stream_path, capsys, *flags, "dict"))

    def test_truth_threshold_identical(self, stream_path, capsys):
        capsys.readouterr()
        flags = ("--delta-offset", "2", "--engine")
        assert (_truth(stream_path, capsys, *flags, "auto")
                == _truth(stream_path, capsys, *flags, "dict"))

    def test_prune_with_dict_engine_is_a_usage_error(
        self, stream_path, capsys
    ):
        # `--prune` is no longer an option of `repro truth`.
        with pytest.raises(SystemExit) as exc:
            main(["truth", str(stream_path), "--k", "5",
                  "--engine", "dict", "--prune"])
        assert exc.value.code == 2
        assert "--prune" in capsys.readouterr().err
