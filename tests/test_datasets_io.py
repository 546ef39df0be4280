"""Unit tests for edge-stream IO."""

import pytest

from repro.datasets.io import (
    ReadStats,
    read_edge_list,
    read_edge_stream,
    write_edge_stream,
)
from repro.graph.dynamic import TemporalGraph

from conftest import random_temporal_graph


class TestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path):
        tg = random_temporal_graph(30, 60, seed=81)
        path = tmp_path / "stream.tsv"
        write_edge_stream(tg, path)
        back = read_edge_stream(path)
        assert back.num_events == tg.num_events
        assert back.snapshot() == tg.snapshot()

    def test_weights_preserved(self, tmp_path):
        tg = TemporalGraph([(0, "a", "b", 2.5), (1, "b", "c", 0.5)])
        path = tmp_path / "weighted.tsv"
        write_edge_stream(tg, path)
        back = read_edge_stream(path)
        assert back.snapshot().weight("a", "b") == 2.5

    def test_header_comment_written(self, tmp_path):
        tg = TemporalGraph([(0, 1, 2)])
        path = tmp_path / "s.tsv"
        write_edge_stream(tg, path)
        assert path.read_text().startswith("#")


class TestReadEdgeStream:
    def test_integer_ids_parsed_as_int(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\n")
        g = read_edge_stream(path).snapshot()
        assert 1 in g and "1" not in g

    def test_string_ids_preserved(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\talice\tbob\n")
        g = read_edge_stream(path).snapshot()
        assert g.has_edge("alice", "bob")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("# header\n\n0\t1\t2\n")
        assert read_edge_stream(path).num_events == 1

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(ValueError, match=":1:"):
            read_edge_stream(path)

    def test_bad_timestamp_reports_location(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\nnope\t3\t4\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_stream(path)

    def test_crlf_line_endings_tolerated(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_bytes(b"# header\r\n0\t1\t2\r\n1\t2\t3\r\n")
        tg = read_edge_stream(path)
        assert tg.num_events == 2
        assert tg.snapshot().has_edge(1, 2)

    def test_missing_trailing_newline_tolerated(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\n1\t2\t3")  # no final newline
        assert read_edge_stream(path).num_events == 2


class TestSkipMode:
    def test_strict_is_default_and_raises(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\ngarbage line\n")
        with pytest.raises(ValueError):
            read_edge_stream(path)

    def test_skip_mode_counts_and_warns_once(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\ngarbage\nbad\t9\n1\t2\t3\n")
        stats = ReadStats()
        with pytest.warns(UserWarning, match="skipped 2 malformed"):
            tg = read_edge_stream(path, errors="skip", stats=stats)
        assert tg.num_events == 2
        assert stats.skipped == 2
        assert stats.parsed == 2
        assert stats.lines == 4
        assert ":2:" in stats.first_error

    def test_skip_mode_clean_file_no_warning(self, tmp_path, recwarn):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\n")
        stats = ReadStats()
        read_edge_stream(path, errors="skip", stats=stats)
        assert stats.skipped == 0
        assert not recwarn.list

    def test_unknown_errors_mode_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\n")
        with pytest.raises(ValueError, match="errors must be"):
            read_edge_stream(path, errors="ignore")


class TestErrorCategories:
    def test_counts_every_category_not_just_first(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text(
            "0\t1\t2\n"          # ok
            "too\tfew\n"          # fields
            "nope\t3\t4\n"        # time
            "1\t5\t6\tbad\n"      # weight
            "2\t\t7\n"            # node
            "inf\t8\t9\n"         # time (non-finite)
        )
        stats = ReadStats()
        with pytest.warns(UserWarning) as caught:
            read_edge_stream(path, errors="skip", stats=stats)
        assert stats.error_counts == {
            "fields": 1, "time": 2, "weight": 1, "node": 1,
        }
        assert stats.skipped == 5
        # The single warning surfaces the per-category breakdown.
        message = str(caught[0].message)
        assert "fields=1" in message and "time=2" in message
        # first_error still pins the first failure's location.
        assert ":2:" in stats.first_error

    def test_category_count_is_bounded(self):
        from repro.datasets.io import MAX_ERROR_CATEGORIES

        stats = ReadStats()
        for i in range(MAX_ERROR_CATEGORIES + 4):
            stats.record_error(f"cat{i}", f"err {i}")
        assert len(stats.error_counts) == MAX_ERROR_CATEGORIES + 1
        assert stats.error_counts["other"] == 4

    def test_non_finite_weight_rejected_strict(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\tinf\n")
        with pytest.raises(ValueError, match="non-finite weight"):
            read_edge_stream(path)

    def test_undecodable_bytes_are_malformed_not_a_crash(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_bytes(b"0\t1\t2\n\xff\xfe broken\n1\t3\t4\n")
        stats = ReadStats()
        with pytest.warns(UserWarning, match="encoding=1"):
            tg = read_edge_stream(path, errors="skip", stats=stats)
        assert tg.num_events == 2
        assert stats.error_counts == {"encoding": 1}

    def test_undecodable_bytes_strict_raises_located_valueerror(
        self, tmp_path
    ):
        path = tmp_path / "s.tsv"
        path.write_bytes(b"0\t1\t2\n\xff\xfe\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_stream(path)


class TestWriteGuards:
    def test_tab_in_node_id_rejected(self, tmp_path):
        tg = TemporalGraph([(0, "a\tb", "c")])
        with pytest.raises(ValueError, match="tabs and newlines"):
            write_edge_stream(tg, tmp_path / "s.tsv")

    def test_newline_in_node_id_rejected(self, tmp_path):
        tg = TemporalGraph([(0, "a", "b\nc")])
        with pytest.raises(ValueError, match="tabs and newlines"):
            write_edge_stream(tg, tmp_path / "s.tsv")

    def test_carriage_return_in_node_id_rejected(self, tmp_path):
        tg = TemporalGraph([(0, "a", "b\rc")])
        with pytest.raises(ValueError):
            write_edge_stream(tg, tmp_path / "s.tsv")

    def test_empty_node_id_rejected(self, tmp_path):
        tg = TemporalGraph([(0, "", "b")])
        with pytest.raises(ValueError, match="empty node id"):
            write_edge_stream(tg, tmp_path / "s.tsv")

    def test_rejection_happens_before_any_write(self, tmp_path):
        path = tmp_path / "s.tsv"
        tg = TemporalGraph([(0, "ok", "fine"), (1, "bad\tid", "x")])
        with pytest.raises(ValueError):
            write_edge_stream(tg, path)
        assert not path.exists()

    def test_ids_that_read_back_as_one_node_are_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        tg = TemporalGraph([(0, "7", 1), (1, 7, 2), (2, "007", 3)])
        with pytest.raises(ValueError, match=r"'7' and 7 would both read"):
            write_edge_stream(tg, path)
        assert not path.exists()
        padded = TemporalGraph([(0, "a", 7), (1, "007", "b")])
        with pytest.raises(ValueError, match=r"7 and '007'"):
            write_edge_stream(padded, path)
        assert not path.exists()

    def test_a_lone_numeric_string_id_still_writes(self, tmp_path):
        path = tmp_path / "s.tsv"
        write_edge_stream(TemporalGraph([(0, "7", "a"), (1, 8, "a")]), path)
        back = read_edge_stream(path)
        assert [ev.endpoints() for ev in back.events()] == [
            (7, "a"), (8, "a")
        ]

    def test_spaces_in_node_ids_roundtrip(self, tmp_path):
        tg = TemporalGraph([(0, "alice smith", "bob jones")])
        path = tmp_path / "s.tsv"
        write_edge_stream(tg, path)
        back = read_edge_stream(path)
        assert back.snapshot().has_edge("alice smith", "bob jones")


class TestSanitizedRead:
    def test_sanitizer_cleans_and_reports(self, tmp_path):
        from repro.ingest import Sanitizer

        path = tmp_path / "dirty.tsv"
        path.write_text("0\t1\t2\n1\t3\t3\ngarbage\n2\t4\t5\n")
        sanitizer = Sanitizer()
        tg = read_edge_stream(path, sanitizer=sanitizer)
        assert tg.num_events == 2
        assert sanitizer.report.dropped == {"self-loop": 1}
        assert sanitizer.report.parse_errors == {"fields": 1}
        assert sanitizer.report.source == str(path)

    def test_sanitizer_and_skip_mode_are_exclusive(self, tmp_path):
        from repro.ingest import Sanitizer

        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\n")
        with pytest.raises(ValueError, match="mutually exclusive"):
            read_edge_stream(path, errors="skip", sanitizer=Sanitizer())

    def test_stats_mirror_report_on_sanitized_read(self, tmp_path):
        from repro.ingest import Sanitizer

        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t2\nbad\n1\t1\t2\n")
        stats = ReadStats()
        read_edge_stream(path, stats=stats, sanitizer=Sanitizer())
        assert stats.lines == 3
        assert stats.parsed == 2
        assert stats.skipped == 1

    def test_edge_list_with_sanitizer_counts_self_loops(self, tmp_path):
        from repro.ingest import Sanitizer

        path = tmp_path / "edges.txt"
        path.write_text("1 1\n1 2\nshort\n2 1\n")
        sanitizer = Sanitizer()
        tg = read_edge_list(path, sanitizer=sanitizer)
        assert tg.num_events == 1
        assert sanitizer.report.dropped == {
            "self-loop": 1, "duplicate": 1,
        }
        assert sanitizer.report.parse_errors == {"fields": 1}


class TestReadEdgeList:
    def test_line_order_is_time(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("5 6\n1 2\n3 4\n")
        events = read_edge_list(path).events()
        assert [ev.endpoints() for ev in events] == [(5, 6), (1, 2), (3, 4)]
        assert [ev.time for ev in events] == [0, 1, 2]

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 1\n1 2\n")
        assert read_edge_list(path).num_events == 1

    def test_whitespace_separated(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1\t2\n3   4\n")
        assert read_edge_list(path).num_events == 2

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("justone\n")
        with pytest.raises(ValueError, match="two fields"):
            read_edge_list(path)


# ----------------------------------------------------------------------
# Property-based: any stream survives a write/read cycle.
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_roundtrip_preserves_snapshot_property(pairs):
    import tempfile
    from pathlib import Path

    events = [(t, u, v) for t, (u, v) in enumerate(pairs) if u != v]
    if not events:
        events = [(0, 0, 1)]
    tg = TemporalGraph(events)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "stream.tsv"
        write_edge_stream(tg, path)
        back = read_edge_stream(path)
    assert back.num_events == tg.num_events
    assert back.snapshot() == tg.snapshot()
    assert [ev.time for ev in back.events()] == [ev.time for ev in tg.events()]
