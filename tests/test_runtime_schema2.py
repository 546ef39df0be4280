"""A schema-2 ``--wal-dir`` (one record holding every window) reopens.

``tests/data/runtime_v2`` was written by the runtime at checkpoint
schema 2, before records held only the windows closed since the
previous one, and before the breaker recorded its seed and draw count::

    repro generate facebook --out stream.tsv --scale 0.05 --seed 7
    repro advance stream.tsv --wal-dir wal --k 5 --batch-size 8 \\
        --checkpoint-every 2 --max-batches 11

It holds one schema-2 state record (sequence 10, 80 events, five
windows, a schema-1 breaker payload) and one WAL batch past it.
``expected.json`` records what ``repro query`` printed over that
directory, and ``advance.txt`` what an uninterrupted ``repro advance``
of the whole stream printed, both at schema 2.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets import io
from repro.graph.dynamic import TemporalGraph
from repro.runtime import RuntimeConfig, RuntimeRecoveryError, StreamRuntime

DATA = Path(__file__).resolve().parent / "data" / "runtime_v2"
EXPECTED = json.loads((DATA / "expected.json").read_text(encoding="utf-8"))
FLAGS = EXPECTED["flags"]
CONFIG = RuntimeConfig(k=5, batch_size=8, checkpoint_every=2)


@pytest.fixture
def wal_dir(tmp_path):
    """A private copy of the schema-2 directory (recovery writes to it)."""
    target = tmp_path / "wal"
    shutil.copytree(DATA / "wal", target)
    return target


def records(wal_dir):
    """``{seq: value}`` of every runtime state record in the store."""
    out = {}
    for path in (wal_dir / "checkpoints").glob("*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        out[record["key"][2]] = record["value"]
    return out


def test_the_artefact_is_schema_2(wal_dir):
    (value,) = records(wal_dir).values()
    assert value["schema"] == 2 and value["seq"] == 10
    assert len(value["windows"]) == 5
    assert value["breaker"]["schema"] == 1


@pytest.mark.parametrize(
    "query,expected", EXPECTED["queries"],
    ids=[" ".join(q) for q, _ in EXPECTED["queries"]],
)
def test_queries_answer_as_recorded(wal_dir, capsys, query, expected):
    rc = main([
        "query", query[0], str(DATA / "stream.tsv"),
        "--wal-dir", str(wal_dir), *FLAGS, *query[1:],
    ])
    assert rc == 0
    assert capsys.readouterr().out == expected


def test_advancing_to_the_end_matches_an_uninterrupted_run(
    wal_dir, tmp_path, capsys
):
    stream = str(DATA / "stream.tsv")
    base = records(wal_dir)[10]
    assert main(["advance", stream, "--wal-dir", str(wal_dir), *FLAGS]) == 0
    resumed = capsys.readouterr().out
    assert main([
        "advance", stream, "--wal-dir", str(tmp_path / "fresh"), *FLAGS,
    ]) == 0
    fresh = capsys.readouterr().out
    recorded = (DATA / "advance.txt").read_text(encoding="utf-8")
    assert resumed == fresh == recorded
    # The schema-2 record stays, unchanged, as the base of the chain:
    # each later record holds the windows closed after it.
    after = records(wal_dir)
    assert after.pop(10) == base
    chained = len(base["windows"])
    for seq in sorted(after):
        assert after[seq]["schema"] == 3
        assert after[seq]["breaker"]["schema"] == 2
        assert after[seq]["windows_before"] == chained
        chained += len(after[seq]["windows"])
    reopened = StreamRuntime(
        io.read_edge_stream(DATA / "stream.tsv"), wal_dir, CONFIG
    )
    assert len(reopened.windows) == chained


def test_a_missing_base_is_refused(wal_dir):
    stream = io.read_edge_stream(DATA / "stream.tsv")
    runtime = StreamRuntime(stream, wal_dir, CONFIG)
    runtime.run()
    assert runtime.store.delete(["runtime", "state", 10])
    with pytest.raises(RuntimeRecoveryError, match="missing"):
        StreamRuntime(stream, wal_dir, CONFIG)


def test_another_seed_is_refused(wal_dir, capsys):
    """The record's schema-1 breaker payload holds its RNG state, which
    only replaying the seed the directory was written with reaches."""
    rc = main([
        "query", "topk", str(DATA / "stream.tsv"),
        "--wal-dir", str(wal_dir), *FLAGS, "--seed", "3",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "seed 3" in err and "seed it was written with" in err


def rows():
    events = io.read_edge_stream(DATA / "stream.tsv").events()
    return [(e.time, e.u, e.v, e.weight) for e in events]


def test_a_changed_source_is_refused(wal_dir):
    edited = rows()
    time, u, v, _ = edited[40]  # inside the checkpointed 80 events
    edited[40] = (time, u, v, 2.0)
    with pytest.raises(RuntimeRecoveryError, match="source"):
        StreamRuntime(TemporalGraph(edited), wal_dir, CONFIG)


def test_a_source_that_only_grew_resumes(wal_dir):
    grown = rows()
    grown.append((grown[-1][0] + 1, 0, 999, 1.0))
    runtime = StreamRuntime(TemporalGraph(grown), wal_dir, CONFIG)
    assert runtime.consumed == 88  # the checkpoint plus its WAL batch
    assert runtime.run().consumed == len(grown)
