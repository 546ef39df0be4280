"""Differential tests: the column parse of ``read_edge_stream`` against
its per-line reader.

``read_edge_stream`` parses a file a column at a time and hands every
file that does not parse that way to the per-line reader, which locates
the fault.  The two must be indistinguishable.  The reference here is
the same call with the column parse switched off (``_read_columns``
declining every file), and for every input — each mutation of the
loader fuzz corpus, and hypothesis-drawn streams with int, str and
mixed ids, 3- and 4-field lines, comments, blank lines, CRLF, no final
newline, out-of-order and tied times and deletion weights — both give
the same events (values and types) in the same ``events()`` order, the
same ``ReadStats``, the same warnings and ``io.skipped_lines`` events,
and the same ``ValueError`` text, under ``errors="strict"`` and
``"skip"``.
"""

import dataclasses
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_mutator import CORRUPTION_CLASSES, mutate
from test_loader_fuzz import SEEDS_PER_CLASS, _base_stream_corpus

from repro.datasets import io
from repro.datasets.io import ReadStats, read_edge_stream
from repro.graph.dynamic import EdgeEvent
from repro.resilience.events import capture_events

ERRORS = ("strict", "skip")


def observe(path, errors):
    """Everything a caller sees of one read: the stream (each field with
    its type) or the error, the stats, warnings and logged events."""
    stats = ReadStats(lines=1, parsed=1)  # reads add to a caller's counts
    with warnings.catch_warnings(record=True) as caught, \
            capture_events() as logged:
        warnings.simplefilter("always")
        try:
            temporal = read_edge_stream(path, errors=errors, stats=stats)
        except ValueError as exc:
            result = ("raised", type(exc), str(exc))
        else:
            events = temporal.events()
            assert all(type(ev) is EdgeEvent for ev in events)
            result = ("read", [
                [(type(field), field) for field in ev] for ev in events
            ])
    return (
        result,
        dataclasses.asdict(stats),
        [(w.category, str(w.message), w.lineno) for w in caught],
        logged,
    )


def observe_per_line(path, errors):
    """:func:`observe` with the column parse declining every file."""
    with mock.patch.object(io, "_read_columns", return_value=None):
        return observe(path, errors)


def takes_column_parse(path):
    return io._read_columns(path.read_bytes()) is not None


@pytest.mark.parametrize("klass", sorted(CORRUPTION_CLASSES))
def test_corpus_mutations_read_as_the_per_line_reader_does(klass, tmp_path):
    corpus = _base_stream_corpus()
    for seed in range(SEEDS_PER_CLASS):
        path = tmp_path / f"{klass}-{seed}.tsv"
        path.write_bytes(mutate(corpus, klass, seed))
        for errors in ERRORS:
            assert observe(path, errors) == observe_per_line(path, errors), (
                f"{klass} seed {seed} errors={errors}"
            )


def test_the_corpus_exercises_both_paths(tmp_path):
    """Some mutations parse by column and some fall back: the
    differential above compares two paths, not one with itself."""
    taken = []
    for klass in sorted(CORRUPTION_CLASSES):
        for seed in range(SEEDS_PER_CLASS):
            path = tmp_path / f"{klass}-{seed}.tsv"
            path.write_bytes(mutate(_base_stream_corpus(), klass, seed))
            taken.append(takes_column_parse(path))
    assert 100 <= sum(taken) <= len(taken) - 100


# ----------------------------------------------------------------------
# Hypothesis-drawn streams
# ----------------------------------------------------------------------
INT_IDS = st.integers(-3, 40).map(str)
NAMES = ["a", "b", "node x", "é", "7.0", "-"]
INT_SPELLINGS = ["007", "+7", "1_0", " 8"]  # read back as ints
IDS = {
    "int": INT_IDS,
    "str": st.sampled_from(NAMES),
    "mixed": st.one_of(INT_IDS, st.sampled_from(NAMES + INT_SPELLINGS)),
}
TIMES = st.one_of(
    st.integers(0, 12).map(str),
    st.floats(0, 50, allow_nan=False).map(repr),
    st.sampled_from(["1e1", "3.", " 4", "1_0"]),
)
WEIGHTS = st.sampled_from(["1.0", "1", "2.5", "0", "0.0", "-1.0", "3"])
NOISE = st.sampled_from(["", "   ", "# comment", "  # indented comment"])
#: Line breaks to ``str.splitlines`` but not to the reader, which
#: splits on "\n" alone: two rows joined by one are one bad line.
NOT_NEWLINES = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def stream_files(draw):
    """TSV bytes: mostly well-formed streams that the column parse
    takes, with the layouts the per-line reader tolerates."""
    ids = IDS[draw(st.sampled_from(sorted(IDS)))]
    width = draw(st.sampled_from([3, 4, 3, 4, "mixed"]))
    ordered = draw(st.booleans())
    rows = draw(st.lists(
        st.tuples(TIMES, ids, ids, WEIGHTS, st.sampled_from([3, 4]))
        .filter(lambda row: row[1] != row[2]),  # loops: see the faults
        max_size=30,
    ))
    if ordered:
        rows.sort(key=lambda row: float(row[0]))
    lines = []
    for t, u, v, w, own_width in rows:
        fields = [t, u, v, w][:own_width if width == "mixed" else width]
        line = "\t".join(fields)
        if draw(st.integers(0, 9)) == 0:
            line = f"  {line} "
        if lines and draw(st.integers(0, 19)) == 0:
            lines[-1] += draw(st.sampled_from(NOT_NEWLINES)) + line
        else:
            lines.append(line)
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(NOISE))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines)
    if draw(st.booleans()):
        text += ending
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(blob=stream_files())
def test_drawn_streams_read_as_the_per_line_reader_does(
    blob, tmp_path_factory
):
    path = tmp_path_factory.getbasetemp() / "drawn.tsv"
    path.write_bytes(blob)
    for errors in ERRORS:
        assert observe(path, errors) == observe_per_line(path, errors)


def test_clean_layouts_take_the_column_parse(tmp_path):
    """Comments, blank and padded lines, CRLF, no final newline, string
    and mixed ids, 3 fields, ties and out-of-order times all stay on the
    column parse."""
    path = tmp_path / "s.tsv"
    path.write_bytes(
        b"# time\tu\tv\r\n\r\n  5\talice\t7 \r\n3\t007\tbob x\r\n"
        b"   \r\n3\t-2\t+4\r\n# tail\r\n1e1\t8\t9"
    )
    assert takes_column_parse(path)
    assert observe(path, "strict") == observe_per_line(path, "strict")
    assert [tuple(ev) for ev in read_edge_stream(path).events()] == [
        (3.0, 7, "bob x", 1.0), (3.0, -2, 4, 1.0),
        (5.0, "alice", 7, 1.0), (10.0, 8, 9, 1.0),
    ]


@pytest.mark.parametrize("blob", [
    b"0\t1\t2\n1\t2\t3\t1.0\n",         # mixed field counts
    b"0\t1\t2\t1.0\n1\t2\t3\tnan\n",     # non-finite weight
    b"0\t1\t2\ninf\t2\t3\n",             # non-finite time
    b"0\t1\t2\n1\t\t3\n",                # empty id
    b"0\t1\t2\n1\t3\t3\n",               # self loop
    b"0\t1\t2\n1\t007\t7\n",             # a self loop once ids parse
    b"0\t1\t2\n1\t2\t\xff\n",            # not UTF-8
    b"0\t1\t2\nx\t2\t3\n",               # bad time
    b"0\t1\n",                           # too few fields
    b"0\t1\t2\r1\t3\t4\n",               # a lone CR is no line break
    "0\t1\t2\u20281\t3\t4\n".encode(),      # nor is U+2028
])
def test_faults_fall_back_to_the_per_line_reader(blob, tmp_path):
    path = tmp_path / "s.tsv"
    path.write_bytes(blob)
    assert not takes_column_parse(path)
    for errors in ERRORS:
        assert observe(path, errors) == observe_per_line(path, errors)
