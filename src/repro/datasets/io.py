"""Reading and writing edge streams.

Real counterparts of the synthetic datasets (IMDB, AS links, Facebook,
DBLP) are plain edge lists; anyone holding them can feed them straight
into the library with these helpers.

Two formats:

* **Timestamped TSV** — ``time<TAB>u<TAB>v[<TAB>weight]`` per line;
  comments start with ``#``.
* **Plain edge list** — ``u<TAB>v`` (or whitespace-separated) per line;
  line order is taken as arrival order, which matches how the paper's
  Facebook stream is distributed.

Three error regimes, strictest first:

* ``errors="strict"`` (default) — raise at the first malformed line;
* ``errors="skip"`` — drop malformed lines, count them per category,
  warn once;
* ``sanitizer=`` — route every line through a
  :class:`~repro.ingest.sanitizer.Sanitizer`, which additionally
  repairs/quarantines *semantic* dirt (duplicates, self loops,
  out-of-order timestamps, weight increases, deletion events) under
  per-rule policies.  See ``docs/datasets.md``.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.graph.dynamic import TemporalGraph
from repro.resilience import log_event

if TYPE_CHECKING:  # imported lazily to avoid a circular dependency
    from repro.ingest.sanitizer import Sanitizer

PathLike = Union[str, Path]

#: Cap on distinct malformed-line categories a :class:`ReadStats`
#: tracks; overflow folds into ``"other"`` (mirrors the ingest report).
MAX_ERROR_CATEGORIES = 8

#: Characters a node id may not contain if the stream is to round-trip
#: through the TSV format.
_FORBIDDEN_ID_CHARS = ("\t", "\n", "\r")


@dataclass
class ReadStats:
    """Counters from one :func:`read_edge_stream` pass.

    Pass an instance via the ``stats`` parameter to observe how many
    lines were parsed and — under ``errors="skip"`` — how many malformed
    lines were dropped.  ``first_error`` keeps the first failure's
    located message; ``error_counts`` keeps a bounded per-category
    breakdown (``fields``, ``time``, ``weight``, ``node``,
    ``encoding``), so later failure modes are never lost behind the
    first one.
    """

    lines: int = 0
    parsed: int = 0
    skipped: int = 0
    first_error: Optional[str] = None
    error_counts: Dict[str, int] = field(default_factory=dict)

    def record_error(self, category: str, located: str) -> None:
        """Count one malformed line under a bounded category."""
        self.skipped += 1
        if self.first_error is None:
            self.first_error = located
        if (category not in self.error_counts
                and len(self.error_counts) >= MAX_ERROR_CATEGORIES):
            category = "other"
        self.error_counts[category] = self.error_counts.get(category, 0) + 1

    def categories(self) -> str:
        """``"fields=2, time=1"``-style rendering of ``error_counts``."""
        return ", ".join(
            f"{k}={v}" for k, v in sorted(self.error_counts.items())
        )


def _check_node_id(node: object) -> None:
    """Reject node ids that cannot round-trip through the TSV format."""
    text = str(node)
    if not text:
        raise ValueError("empty node id cannot round-trip through TSV")
    for ch in _FORBIDDEN_ID_CHARS:
        if ch in text:
            raise ValueError(
                f"node id {text!r} contains {ch!r}; tabs and newlines "
                "are field/record separators and would produce an "
                "unparseable file"
            )


def _check_node_ids(nodes: Iterable[object]) -> None:
    """Reject ids that cannot round-trip, and distinct ids that would
    read back as one node (``'7'``, ``7`` and ``'007'`` all read as
    ``7``)."""
    read_as: Dict[object, object] = {}
    for node in nodes:
        _check_node_id(node)
        back = _parse_node(str(node))
        first = read_as.setdefault(back, node)
        if first != node:
            raise ValueError(
                f"node ids {first!r} and {node!r} would both read back "
                f"as {back!r}, merging two nodes into one"
            )


def write_edge_stream(temporal: TemporalGraph, path: PathLike) -> None:
    """Write a temporal graph as timestamped TSV.

    Node ids containing tabs, newlines, or carriage returns, empty ids,
    and distinct ids that would read back as one node (``'7'`` beside
    ``7``) are rejected with a clear error *before* any line is written
    — silently producing a file :func:`read_edge_stream` cannot parse
    back is the one failure mode a round-trip format must not have.
    """
    path = Path(path)
    events = temporal.events()
    _check_node_ids(dict.fromkeys(
        node for ev in events for node in (ev.u, ev.v)
    ))
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# time\tu\tv\tweight\n")
        for ev in events:
            fh.write(f"{ev.time}\t{ev.u}\t{ev.v}\t{ev.weight}\n")


class _MalformedLine(ValueError):
    """A line that failed to parse, tagged with a bounded category."""

    def __init__(self, category: str, message: str) -> None:
        super().__init__(message)
        self.category = category


def _parse_node(token: str) -> Union[int, str]:
    if not token:
        raise _MalformedLine("node", "empty node id field")
    try:
        return int(token)
    except ValueError:
        return token


def _parse_stream_line(line: str) -> Tuple[float, object, object, float]:
    """``time<TAB>u<TAB>v[<TAB>weight]`` -> parsed fields, or
    :class:`_MalformedLine`."""
    parts = line.split("\t")
    if len(parts) not in (3, 4):
        raise _MalformedLine(
            "fields",
            f"expected 3 or 4 tab-separated fields, got {len(parts)}",
        )
    try:
        time = float(parts[0])
    except ValueError:
        raise _MalformedLine(
            "time", f"bad timestamp {parts[0]!r}"
        ) from None
    if not math.isfinite(time):
        raise _MalformedLine("time", f"non-finite timestamp {parts[0]!r}")
    u = _parse_node(parts[1])
    v = _parse_node(parts[2])
    if len(parts) == 4:
        try:
            weight = float(parts[3])
        except ValueError:
            raise _MalformedLine(
                "weight", f"bad weight {parts[3]!r}"
            ) from None
        if not math.isfinite(weight):
            raise _MalformedLine(
                "weight", f"non-finite weight {parts[3]!r}"
            )
    else:
        weight = 1.0
    return time, u, v, weight


def read_edge_stream(
    path: PathLike,
    errors: str = "strict",
    stats: Optional[ReadStats] = None,
    sanitizer: "Optional[Sanitizer]" = None,
) -> TemporalGraph:
    """Read a timestamped TSV edge stream written by :func:`write_edge_stream`.

    Node ids that parse as integers are loaded as integers; everything
    else is kept as a string.  CRLF line endings and a final line with
    no trailing newline are tolerated — real exports routinely have
    both.  Lines that are not valid UTF-8 are malformed lines, not a
    reader crash.

    A file is parsed a column at a time; a file that does not parse
    that way whole (and every read with a sanitizer) is read line by
    line, which locates each fault.  Both give the same stream.

    Parameters
    ----------
    errors:
        ``"strict"`` (default) raises :class:`ValueError` with the
        ``path:lineno`` of the first malformed line; ``"skip"`` drops
        malformed lines, then emits **one** counted warning (and an
        ``io.skipped_lines`` resilience event) for the whole file.
    stats:
        Optional :class:`ReadStats` collecting line/parsed/skipped
        counts (with a bounded per-category error breakdown) for the
        caller.
    sanitizer:
        Optional :class:`~repro.ingest.sanitizer.Sanitizer`.  Every
        parsed event is routed through its rule chain and reorder
        buffer; malformed lines go to its ``parse`` rule.  The sanitizer
        is flushed and finalized here (writing its quarantine store, if
        configured, with this file's path and SHA-256).  Mutually
        exclusive with ``errors="skip"`` — the sanitizer's ``parse``
        policy governs malformed lines instead.
    """
    if errors not in ("strict", "skip"):
        raise ValueError(f"errors must be 'strict' or 'skip', got {errors!r}")
    if sanitizer is not None and errors != "strict":
        raise ValueError(
            "errors='skip' and sanitizer= are mutually exclusive; "
            "set the sanitizer's 'parse' policy instead"
        )
    path = Path(path)
    stats = stats if stats is not None else ReadStats()
    data = path.read_bytes()
    if sanitizer is not None:
        return _read_lines(path, data, errors, stats, sanitizer)
    temporal = _read_columns(data)
    if temporal is None:
        temporal = _read_lines(path, data, errors, stats, None)
    else:
        stats.lines += temporal.num_events
        stats.parsed += temporal.num_events
    if stats.skipped:
        log_event(
            "io.skipped_lines", path=str(path), skipped=stats.skipped,
            parsed=stats.parsed, categories=stats.categories(),
        )
        warnings.warn(
            f"{path}: skipped {stats.skipped} malformed line(s) "
            f"[{stats.categories()}] (first: {stats.first_error})",
            stacklevel=2,
        )
    return temporal


def _read_columns(data: bytes) -> Optional[TemporalGraph]:
    """The stream in ``data`` parsed one column at a time, or ``None``.

    It takes exactly the UTF-8 files whose data lines all parse by
    :func:`_parse_stream_line` with one field count and hold no self
    loop, and returns what :func:`_read_lines` returns for them.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # Split on "\n" alone, as line iteration over the bytes does.
    lines = [
        line for line in map(str.strip, text.split("\n"))
        if line and line[0] != "#"
    ]
    if not lines:
        return TemporalGraph()
    # Each stage's strings are dropped once the next stage holds the
    # data, which keeps a read's peak memory about a third lower.
    del text
    rows = [line.split("\t") for line in lines]
    del lines
    width = len(rows[0])
    if width not in (3, 4) or set(map(len, rows)) != {width}:
        return None
    columns = list(zip(*rows))
    del rows
    try:
        times = list(map(float, columns[0]))
        us = _node_column(columns[1])
        vs = _node_column(columns[2])
        weights = (
            list(map(float, columns[3])) if width == 4 else [1.0] * len(times)
        )
    except ValueError:  # a bad number or an empty id
        return None
    del columns
    if not (all(map(math.isfinite, times))
            and all(map(math.isfinite, weights))):
        return None
    try:
        return TemporalGraph.from_columns(times, us, vs, weights)
    except ValueError:  # a self loop
        return None


def _node_column(tokens: Sequence[str]) -> List[Union[int, str]]:
    """:func:`_parse_node` over a column: one ``int`` map when every id
    is an integer."""
    try:
        return list(map(int, tokens))
    except ValueError:
        return list(map(_parse_node, tokens))


def _read_lines(
    path: Path,
    data: bytes,
    errors: str,
    stats: ReadStats,
    sanitizer: "Optional[Sanitizer]",
) -> TemporalGraph:
    """Parse ``data`` line by line: the sanitizer's path, and the one
    that locates malformed lines (``ValueError`` or ``stats``)."""
    temporal = TemporalGraph()

    def handle_malformed(lineno: int, raw: str, category: str,
                         message: str) -> None:
        located = f"{path}:{lineno}: {message}"
        if sanitizer is not None:
            sanitizer.feed_parse_error(lineno, raw, message, category)
            return
        if errors == "strict":
            raise ValueError(located) from None
        stats.lines += 1
        stats.record_error(category, located)

    # BytesIO yields each line with its "\n", as the file would.
    for lineno, bline in enumerate(BytesIO(data), start=1):
        try:
            line = bline.decode("utf-8")
        except UnicodeDecodeError as exc:
            raw = bline.decode("utf-8", errors="backslashreplace").strip()
            handle_malformed(
                lineno, raw, "encoding", f"undecodable UTF-8 ({exc})"
            )
            continue
        # strip() removes the trailing \n / \r\n (the last line may
        # have neither) plus incidental surrounding whitespace.
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            time, u, v, weight = _parse_stream_line(line)
        except _MalformedLine as exc:
            handle_malformed(lineno, line, exc.category, str(exc))
            continue
        if sanitizer is not None:
            for ev in sanitizer.feed(time, u, v, weight,
                                     lineno=lineno, raw=line):
                temporal.add_event(ev)
        else:
            stats.lines += 1
            temporal.add_edge(time, u, v, weight)
            stats.parsed += 1
    if sanitizer is not None:
        for ev in sanitizer.flush():
            temporal.add_event(ev)
        sanitizer.finalize(
            source=str(path), source_sha256=hashlib.sha256(data).hexdigest()
        )
        stats.lines = sanitizer.report.lines
        stats.parsed = sanitizer.report.parsed
        stats.skipped = sanitizer.report.malformed
    return temporal


def read_edge_list(
    path: PathLike,
    sanitizer: "Optional[Sanitizer]" = None,
) -> TemporalGraph:
    """Read a plain edge list, using line order as arrival order.

    Without a sanitizer, short lines raise and self loops are silently
    skipped (real edge lists occasionally contain them).  With a
    ``sanitizer``, both go through its rule chain instead — counted,
    repairable, quarantinable — along with duplicate collapse.
    """
    path = Path(path)
    temporal = TemporalGraph()
    time = 0
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for lineno, bline in enumerate(fh, start=1):
            digest.update(bline)
            try:
                line = bline.decode("utf-8")
            except UnicodeDecodeError as exc:
                if sanitizer is None:
                    raise ValueError(
                        f"{path}:{lineno}: undecodable UTF-8 ({exc})"
                    ) from None
                raw = bline.decode("utf-8", errors="backslashreplace").strip()
                sanitizer.feed_parse_error(
                    lineno, raw, f"undecodable UTF-8 ({exc})", "encoding"
                )
                continue
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                if sanitizer is None:
                    raise ValueError(
                        f"{path}:{lineno}: expected at least two fields"
                    )
                sanitizer.feed_parse_error(
                    lineno, line, "expected at least two fields", "fields"
                )
                continue
            try:
                u = _parse_node(parts[0])
                v = _parse_node(parts[1])
            except _MalformedLine as exc:
                if sanitizer is None:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                sanitizer.feed_parse_error(lineno, line, str(exc),
                                           exc.category)
                continue
            if sanitizer is not None:
                for ev in sanitizer.feed(float(time), u, v,
                                         lineno=lineno, raw=line):
                    temporal.add_event(ev)
                time += 1
                continue
            if u == v:
                continue  # real edge lists occasionally contain self loops
            temporal.add_edge(time, u, v)
            time += 1
    if sanitizer is not None:
        for ev in sanitizer.flush():
            temporal.add_event(ev)
        sanitizer.finalize(
            source=str(path), source_sha256=digest.hexdigest()
        )
    return temporal
