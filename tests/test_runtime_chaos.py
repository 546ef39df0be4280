"""Chaos acceptance for the streaming runtime (``pytest -m faults``).

Each scenario SIGKILLs a real ``repro advance`` subprocess at a named
injection point — mid-WAL-append, mid-checkpoint, mid-repair — and then
reruns it over the surviving state directory. The acceptance bar is
*byte-identical stdout*: the recovered run must print exactly what an
uninterrupted run prints, which is only possible if recovery is
last-checkpoint + WAL-suffix replay with no drift in window boundaries,
engine choices, or the breaker's seeded probe schedule.

The kill is delivered by the process to itself (``REPRO_CHAOS_KILL``,
see ``repro.cli``), so no timing races: the nth traversal of the
injection point dies exactly there, torn state and all.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import io

from conftest import random_temporal_graph

pytestmark = pytest.mark.faults

SRC = Path(__file__).resolve().parents[1] / "src"

# Enough events for several windows and several checkpoints at the
# flags below, so every kill point has fired before the stream ends.
STREAM_NODES, STREAM_EDGES, STREAM_SEED = 40, 200, 7

ADVANCE_FLAGS = ("--k", "5", "--batch-size", "8", "--checkpoint-every", "2")


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-stream") / "stream.tsv"
    io.write_edge_stream(
        random_temporal_graph(STREAM_NODES, STREAM_EDGES, seed=STREAM_SEED),
        path,
    )
    return path


def advance(stream_file, wal_dir, *, kill_at=None, flags=ADVANCE_FLAGS):
    """Run ``repro advance`` in a subprocess; optionally arm the killer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if kill_at is None:
        env.pop("REPRO_CHAOS_KILL", None)
    else:
        env["REPRO_CHAOS_KILL"] = kill_at
    cmd = [
        sys.executable, "-m", "repro", "advance", str(stream_file),
        "--wal-dir", str(wal_dir), *flags,
    ]
    return subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=120
    )


def assert_killed(proc):
    """SIGKILL shows up as -9 from Python, 137 from a shell wrapper."""
    assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL), (
        proc.returncode, proc.stdout, proc.stderr,
    )


@pytest.fixture(scope="module")
def baseline(stream_file, tmp_path_factory):
    """Stdout of one uninterrupted run — the byte-identity oracle."""
    wal_dir = tmp_path_factory.mktemp("baseline") / "wal"
    proc = advance(stream_file, wal_dir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


class TestCleanDeterminism:
    def test_two_fresh_runs_print_identical_bytes(
        self, stream_file, baseline, tmp_path
    ):
        proc = advance(stream_file, tmp_path / "wal")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == baseline


class TestKillNine:
    @pytest.mark.parametrize(
        "kill_at",
        [
            "wal.append.mid:9",   # torn tail: half a batch on disk
            "checkpoint.mid:2",   # new state written, old not yet pruned
            "repair.mid:4",       # mid-window compute, WAL ahead of state
        ],
    )
    def test_recovery_after_kill_is_byte_identical(
        self, stream_file, baseline, tmp_path, kill_at
    ):
        wal_dir = tmp_path / "wal"
        crashed = advance(stream_file, wal_dir, kill_at=kill_at)
        assert_killed(crashed)
        # The WAL survived the kill; state may or may not exist yet.
        assert (wal_dir / "wal.log").exists()

        recovered = advance(stream_file, wal_dir)
        assert recovered.returncode == 0, recovered.stderr
        assert recovered.stdout == baseline

    def test_repeated_kills_still_converge(
        self, stream_file, baseline, tmp_path
    ):
        """Crash twice at different points before letting it finish."""
        wal_dir = tmp_path / "wal"
        for kill_at in ("wal.append.mid:5", "checkpoint.mid:4"):
            crashed = advance(stream_file, wal_dir, kill_at=kill_at)
            assert_killed(crashed)
        recovered = advance(stream_file, wal_dir)
        assert recovered.returncode == 0, recovered.stderr
        assert recovered.stdout == baseline

    def test_rerun_after_completion_is_still_identical(
        self, stream_file, baseline, tmp_path
    ):
        """A finished directory replays its results, not an error."""
        wal_dir = tmp_path / "wal"
        first = advance(stream_file, wal_dir)
        assert first.returncode == 0, first.stderr
        again = advance(stream_file, wal_dir)
        assert again.returncode == 0, again.stderr
        assert again.stdout == baseline


class TestSchemaUpgrade:
    def _kill_mid_first_checkpoint(self, tmp_path, artefact):
        """SIGKILL while the first record is written over an older
        ``--wal-dir``; returns the sorted record schemas the store then
        holds, after checking that recovery still prints what an
        uninterrupted run prints."""
        data = Path(__file__).resolve().parent / "data" / artefact
        flags = json.loads((data / "expected.json").read_text())["flags"]
        wal_dir = tmp_path / "wal"
        shutil.copytree(data / "wal", wal_dir)
        stream = data / "stream.tsv"
        crashed = advance(
            stream, wal_dir, kill_at="checkpoint.mid:1", flags=flags
        )
        assert_killed(crashed)
        schemas = sorted(
            json.loads(path.read_text())["value"]["schema"]
            for path in (wal_dir / "checkpoints").glob("*.json")
        )
        recovered = advance(stream, wal_dir, flags=flags)
        assert recovered.returncode == 0, recovered.stderr
        assert recovered.stdout == (data / "advance.txt").read_text()
        return schemas

    def test_kill_mid_first_schema_2_checkpoint_recovers(self, tmp_path):
        """Over a schema-1 directory: the store holds the schema-1 base
        and the first record written after it (now schema 3)."""
        assert self._kill_mid_first_checkpoint(
            tmp_path, "runtime_v1"
        ) == [1, 3]

    def test_kill_mid_first_schema_3_checkpoint_recovers(self, tmp_path):
        """Over a schema-2 directory: the store holds the schema-2 base
        and the first schema-3 record."""
        assert self._kill_mid_first_checkpoint(
            tmp_path, "runtime_v2"
        ) == [2, 3]


class TestChaosEnvValidation:
    def test_malformed_kill_spec_is_a_cli_error(self, stream_file, tmp_path):
        proc = advance(
            stream_file, tmp_path / "wal", kill_at="checkpoint.mid:zero"
        )
        assert proc.returncode == 2
        assert "REPRO_CHAOS_KILL" in proc.stderr
