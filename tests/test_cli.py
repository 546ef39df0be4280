"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main


def test_parser_leaves_the_lint_analyzer_unloaded():
    """Every command builds the `lint` subparser; only `repro lint` pays
    for importing the analyzer behind it."""
    code = ("import sys; from repro.cli import build_parser; build_parser(); "
            "print([m for m in ('runner', 'project', 'callgraph', "
            "'dataflow', 'rules') if 'repro.lint.' + m in sys.modules])")
    completed = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, check=True)
    assert completed.stdout == "[]\n"


def test_scipy_loads_only_when_a_model_is_fit():
    """`import repro` brings in `repro.ml`, but only a fit imports scipy;
    the query paths load no process pool either."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import repro, repro.cli, repro.core.algorithm, repro.runtime, "
        "repro.service\n"
        "repro.cli.build_parser()\n"
        "print('scipy' in sys.modules)\n"
        "print([m for m in ('repro.parallel', 'multiprocessing', "
        "'multiprocessing.shared_memory', 'concurrent.futures.process') "
        "if m in sys.modules])\n"
        "from repro.ml import LogisticRegression\n"
        "LogisticRegression().fit(np.array([[0.0], [1.0]]), np.array([0, 1]))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    completed = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, check=True)
    assert completed.stdout == "False\n[]\nTrue\n"


class TestListing:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("actors", "internet", "facebook", "dblp"):
            assert name in out

    def test_selectors(self, capsys):
        assert main(["selectors"]) == 0
        out = capsys.readouterr().out
        assert "MMSD" in out and "L-Classifier" in out


class TestGenerate:
    def test_writes_stream(self, tmp_path, capsys):
        out_file = tmp_path / "fb.tsv"
        rc = main([
            "generate", "facebook", "--out", str(out_file), "--scale", "0.1",
        ])
        assert rc == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out


class TestCharacteristics:
    def test_catalog_input(self, capsys):
        rc = main(["characteristics", "facebook", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_delta" in out
        assert "nodes_t1" in out

    def test_file_input(self, tmp_path, capsys):
        stream = tmp_path / "s.tsv"
        main(["generate", "facebook", "--out", str(stream), "--scale", "0.1"])
        capsys.readouterr()
        rc = main(["characteristics", str(stream)])
        assert rc == 0
        assert "edges_t2" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        rc = main(["characteristics", "/does/not/exist.tsv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "neither" in err


class TestTruth:
    def test_threshold_mode(self, capsys):
        rc = main(["truth", "facebook", "--scale", "0.1",
                   "--delta-offset", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "δ =" in out
        assert "d_t1" in out

    def test_explicit_k(self, capsys):
        rc = main(["truth", "facebook", "--scale", "0.1", "--k", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") <= 10  # header + 5 pairs and maybe ellipsis

    def test_engine_choice_is_byte_invisible(self, capsys):
        """The engine flag is an execution detail, never a result."""
        outputs = []
        for engine in ["auto", "csr", "dict"]:
            rc = main(["truth", "facebook", "--scale", "0.1",
                       "--delta-offset", "1", "--engine", engine])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "δ =" in outputs[0]

    @pytest.mark.parametrize("engine", ["csr"])
    def test_hop_engine_on_weighted_input_is_a_usage_error(
        self, engine, capsys
    ):
        rc = main(["truth", "internet-weighted", "--scale", "0.1",
                   "--k", "5", "--engine", engine])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "weight" in err


class TestTopk:
    def test_budgeted_run(self, capsys):
        rc = main([
            "topk", "facebook", "--scale", "0.1", "--selector", "MMSD",
            "--m", "15", "--k", "10", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget: 30/30" in out
        assert "candidates (15)" in out

    def test_plain_selector_without_landmark_kwarg(self, capsys):
        rc = main([
            "topk", "facebook", "--scale", "0.1", "--selector", "DegRel",
            "--m", "10", "--k", "5",
        ])
        assert rc == 0
        assert "budget: 20/20" in capsys.readouterr().out

    def test_file_roundtrip(self, tmp_path, capsys):
        stream = tmp_path / "s.tsv"
        main(["generate", "internet", "--out", str(stream), "--scale", "0.1"])
        capsys.readouterr()
        rc = main(["topk", str(stream), "--m", "10", "--k", "5"])
        assert rc == 0


class TestExperiment:
    def test_table2(self, capsys):
        rc = main(["experiment", "table2", "--scale", "0.15"])
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "table7"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestTrainAndModelDriven:
    def test_train_saves_model(self, tmp_path, capsys):
        out = tmp_path / "model.npz"
        rc = main([
            "train", "facebook", "--scale", "0.15", "--out", str(out),
            "--landmarks", "3",
        ])
        assert rc == 0
        assert out.exists()
        assert "trained local classifier" in capsys.readouterr().out

    def test_topk_with_saved_model(self, tmp_path, capsys):
        out = tmp_path / "model.npz"
        main(["train", "facebook", "--scale", "0.15", "--out", str(out),
              "--landmarks", "3"])
        capsys.readouterr()
        rc = main([
            "topk", "facebook", "--scale", "0.15", "--m", "15", "--k", "5",
            "--model", str(out),
        ])
        assert rc == 0
        assert "budget: 30/30" in capsys.readouterr().out


class TestMonitor:
    def test_monitor_runs_windows(self, capsys):
        rc = main([
            "monitor", "dblp", "--scale", "0.15",
            "--checkpoints", "0.5,0.75,1.0", "--m", "10", "--k", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("window") == 2
        assert "total SSSPs" in out


class TestErrorPaths:
    """User-input errors: one-line ``error:`` message, exit code 2."""

    def test_unknown_selector_message(self, capsys):
        rc = main(["topk", "facebook", "--scale", "0.1",
                   "--selector", "NotReal", "--m", "5", "--k", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "known selectors" in err
        assert "Traceback" not in err

    def test_bad_checkpoints_list(self, capsys):
        rc = main(["monitor", "dblp", "--scale", "0.15",
                   "--checkpoints", "0.5,banana,1.0"])
        assert rc == 2
        assert "bad --checkpoints" in capsys.readouterr().err

    def test_out_of_range_checkpoints(self, capsys):
        rc = main(["monitor", "dblp", "--scale", "0.15",
                   "--checkpoints", "0.5,1.5"])
        assert rc == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_unknown_dataset_subset(self, capsys):
        rc = main(["experiment", "table5", "--datasets", "nope"])
        assert rc == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        rc = main(["experiment", "table5", "--resume"])
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_nonpositive_deadline_is_exit_2(self, capsys):
        for cmd in (
            ["experiment", "table5", "--deadline-s", "0"],
            ["monitor", "dblp", "--deadline-s", "-5"],
        ):
            rc = main(cmd)
            assert rc == 2
            assert "--deadline-s must be positive" in capsys.readouterr().err

    def test_unreadable_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x\t1\t2\n")  # timestamp column is not a number
        rc = main(["characteristics", str(bad)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


DIRTY_STREAM = (
    "0\t1\t2\t5.0\n"
    "1\t3\t3\t1.0\n"
    "garbage line\n"
    "2\t6\t7\t0.0\n"
    "3\t8\t9\t1.0\n"
)


class TestValidate:
    def test_clean_stream_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.tsv"
        path.write_text("0\t1\t2\n1\t2\t3\n")
        assert main(["validate", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_dirty_stream_exits_one_with_report(self, tmp_path, capsys):
        path = tmp_path / "dirty.tsv"
        path.write_text(DIRTY_STREAM)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "self-loop" in out
        assert "deletion" in out
        assert "fields=1" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.tsv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plain_edge_list_supported(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n1 1\n")
        assert main(["validate", str(path)]) == 1
        assert "self-loop" in capsys.readouterr().out


class TestSanitize:
    def test_writes_clean_stream(self, tmp_path, capsys):
        src = tmp_path / "dirty.tsv"
        src.write_text(DIRTY_STREAM)
        out = tmp_path / "clean.tsv"
        rc = main(["sanitize", str(src), "--out", str(out)])
        assert rc == 0
        assert "wrote 2 events" in capsys.readouterr().out
        # The output re-validates as clean.
        assert main(["validate", str(out)]) == 0

    def test_policy_override_and_quarantine_dir(self, tmp_path, capsys):
        src = tmp_path / "dirty.tsv"
        src.write_text(DIRTY_STREAM)
        rc = main([
            "sanitize", str(src), "--out", str(tmp_path / "c.tsv"),
            "--policy", "deletion=quarantine",
            "--quarantine-dir", str(tmp_path / "q"),
        ])
        assert rc == 0
        assert (tmp_path / "q" / "manifest.json").exists()
        assert "quarantined" in capsys.readouterr().out

    def test_bad_policy_spec_exits_two(self, tmp_path, capsys):
        src = tmp_path / "s.tsv"
        src.write_text("0\t1\t2\n")
        rc = main([
            "sanitize", str(src), "--out", str(tmp_path / "c.tsv"),
            "--policy", "deletion",
        ])
        assert rc == 2
        assert "rule=mode" in capsys.readouterr().err

    def test_strict_policy_failure_exits_two(self, tmp_path, capsys):
        src = tmp_path / "dirty.tsv"
        src.write_text(DIRTY_STREAM)
        rc = main([
            "sanitize", str(src), "--out", str(tmp_path / "c.tsv"),
            "--policy", "deletion=strict",
        ])
        assert rc == 2
        assert "[deletion]" in capsys.readouterr().err


class TestQuarantineCommand:
    def _quarantined(self, tmp_path):
        src = tmp_path / "dirty.tsv"
        src.write_text(DIRTY_STREAM)
        main([
            "sanitize", str(src), "--out", str(tmp_path / "c.tsv"),
            "--policy", "deletion=quarantine",
            "--quarantine-dir", str(tmp_path / "q"),
        ])
        return tmp_path / "q"

    def test_show_lists_records(self, tmp_path, capsys):
        qdir = self._quarantined(tmp_path)
        capsys.readouterr()
        assert main(["quarantine", "show", str(qdir)]) == 0
        out = capsys.readouterr().out
        assert "[deletion]" in out
        assert "sha256" in out

    def test_replay_with_policy_flip(self, tmp_path, capsys):
        qdir = self._quarantined(tmp_path)
        capsys.readouterr()
        out = tmp_path / "replayed.tsv"
        rc = main([
            "quarantine", "replay", str(qdir),
            "--policy", "deletion=repair", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "wrote 2 events" in capsys.readouterr().out

    def test_missing_store_exits_two(self, tmp_path, capsys):
        rc = main(["quarantine", "show", str(tmp_path / "nothing")])
        assert rc == 2
        assert "no quarantine run" in capsys.readouterr().err


class TestMonitorInvalidWindow:
    def test_skip_and_log_flag(self, tmp_path, capsys):
        src = tmp_path / "del.tsv"
        rows = [f"{t}\t{t % 5}\t{t % 7 + 5}\t1.0" for t in range(40)]
        rows.append("40\t0\t5\t0.0")  # delete the first edge
        src.write_text("\n".join(rows) + "\n")
        rc = main([
            "monitor", str(src), "--checkpoints", "0.5,1.0",
            "--on-invalid-window", "skip-and-log", "--k", "3", "--m", "4",
        ])
        assert rc == 0
        assert "FAILED" in capsys.readouterr().out

    def test_default_fail_surfaces_error(self, tmp_path, capsys):
        src = tmp_path / "del.tsv"
        rows = [f"{t}\t{t % 5}\t{t % 7 + 5}\t1.0" for t in range(40)]
        rows.append("40\t0\t5\t0.0")
        src.write_text("\n".join(rows) + "\n")
        rc = main([
            "monitor", str(src), "--checkpoints", "0.5,1.0",
            "--k", "3", "--m", "4",
        ])
        assert rc == 2
        assert "insertion-only" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--k", "0"),
            ("--m", "0"),
            ("--k", "-3"),
        ],
    )
    def test_invalid_knob_combo_is_exit_2_not_traceback(
        self, capsys, flags
    ):
        """Regression: rejected monitor knob combinations used to escape
        as a bare ValueError traceback instead of a flag error."""
        rc = main([
            "monitor", "dblp", "--scale", "0.15",
            "--checkpoints", "0.5,1.0", *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestAdvance:
    def _stream(self, tmp_path):
        src = tmp_path / "stream.tsv"
        rows = [f"{t}\t{t % 9}\t{t % 11 + 9}\t1.0" for t in range(60)]
        src.write_text("\n".join(rows) + "\n")
        return src

    def test_full_run_prints_windows_and_status(self, tmp_path, capsys):
        src = self._stream(tmp_path)
        rc = main([
            "advance", str(src), "--wal-dir", str(tmp_path / "wal"),
            "--k", "3", "--batch-size", "5", "--checkpoint-every", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "window 0:" in out
        assert "status=complete" in out

    def test_pause_and_resume_match_uninterrupted(self, tmp_path, capsys):
        src = self._stream(tmp_path)
        base = ["--k", "3", "--batch-size", "5", "--checkpoint-every", "2"]
        assert main([
            "advance", str(src), "--wal-dir", str(tmp_path / "a"), *base,
        ]) == 0
        uninterrupted = capsys.readouterr().out

        assert main([
            "advance", str(src), "--wal-dir", str(tmp_path / "b"), *base,
            "--max-batches", "3",
        ]) == 0
        paused = capsys.readouterr().out
        assert "status=paused" in paused
        assert main([
            "advance", str(src), "--wal-dir", str(tmp_path / "b"), *base,
        ]) == 0
        assert capsys.readouterr().out == uninterrupted

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        src = self._stream(tmp_path)
        rc = main([
            "advance", str(src), "--wal-dir", str(tmp_path / "wal"),
            "--k", "0",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_selector_is_exit_2(self, tmp_path, capsys):
        src = self._stream(tmp_path)
        rc = main([
            "advance", str(src), "--wal-dir", str(tmp_path / "wal"),
            "--selector", "NoSuchSelector", "--m", "5",
        ])
        assert rc == 2
        assert "NoSuchSelector" in capsys.readouterr().err

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        rc = main([
            "advance", str(tmp_path / "absent.tsv"),
            "--wal-dir", str(tmp_path / "wal"),
        ])
        assert rc == 2

    def test_source_mismatch_is_exit_2(self, tmp_path, capsys):
        src = self._stream(tmp_path)
        wal = str(tmp_path / "wal")
        assert main([
            "advance", str(src), "--wal-dir", wal, "--max-batches", "2",
        ]) == 0
        capsys.readouterr()
        other = tmp_path / "other.tsv"
        rows = [f"{t}\t{t % 4}\t{t % 6 + 4}\t2.0" for t in range(60)]
        other.write_text("\n".join(rows) + "\n")
        rc = main(["advance", str(other), "--wal-dir", wal])
        assert rc == 2
        assert "source" in capsys.readouterr().err
