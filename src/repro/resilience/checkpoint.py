"""Atomic, schema-versioned JSON checkpoints for resumable runs.

The cost model's whole point is that each SSSP-budgeted run is the
expensive unit — a crash halfway through a sweep must not force paying
for completed units twice.  :class:`CheckpointStore` persists one small
JSON record per completed unit, keyed by whatever identifies the unit
(the runner uses ``(experiment, dataset, scale, δ, selector, ...)``),
and survives the two classic failure modes:

* **torn writes** — records are written to a temp file in the same
  directory, fsynced, then :func:`os.replace`'d into place, and the
  parent directory entry is fsynced after the rename (without it, a
  crash right after ``os.replace`` can lose the whole record on
  filesystems that journal data but not directory updates), so a record
  either exists completely or not at all;
* **corrupted records** — every record embeds a SHA-256 checksum of its
  canonical payload and a schema version; a record that fails either
  check is treated as missing (and reported via
  :func:`~repro.resilience.events.log_event`), so a damaged store
  degrades to recomputation, never to wrong results.

Values must be JSON-serialisable.  Keys may be arbitrarily nested
tuples/lists of scalars; they are canonicalised (tuples → lists) before
hashing, so ``("a", 1)`` and ``["a", 1]`` name the same record.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any, Iterator, List, Tuple, Union

from repro.resilience.events import log_event

PathLike = Union[str, Path]

SCHEMA_VERSION = 1

_MISSING = object()


def _canonical_key(key: Any) -> Any:
    """Tuples become lists so a key equals its JSON round-trip."""
    if isinstance(key, (list, tuple)):
        return [_canonical_key(part) for part in key]
    return key


def _checksum(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fsync_directory(directory: Path) -> None:
    """Fsync a directory entry so a just-renamed file survives a crash.

    ``os.replace`` makes the *file contents* atomic, but the rename
    itself lives in the directory: until the directory inode is synced,
    a power cut can roll the rename back.  Platforms whose directories
    cannot be opened for fsync (Windows) skip silently — the rename is
    still atomic there, only the durability window differs.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """A directory of atomic single-record JSON checkpoints.

    Parameters
    ----------
    directory:
        Created (with parents) if absent.  One file per key; concurrent
        *readers* are always safe, and concurrent writers of *different*
        keys are safe because each record is replaced atomically.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: Any) -> Path:
        canonical = _canonical_key(key)
        digest = _checksum(canonical)[:20]
        # A short human-readable prefix makes `ls` on the store useful.
        flat = "-".join(
            str(part) for part in (key if isinstance(key, (list, tuple)) else [key])
        )
        prefix = re.sub(r"[^A-Za-z0-9._-]+", "_", flat)[:60].strip("_") or "key"
        return self.directory / f"{prefix}.{digest}.json"

    def put(self, key: Any, value: Any) -> Path:
        """Atomically persist ``value`` under ``key``; returns the path."""
        canonical = _canonical_key(key)
        record = {
            "schema": SCHEMA_VERSION,
            "key": canonical,
            "checksum": _checksum(value),
            "value": value,
        }
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            # One ``dumps`` runs the C encoder; ``json.dump`` would write
            # the same bytes chunk by chunk from the pure-Python one.
            fh.write(json.dumps(record, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_directory(self.directory)
        return path

    def get(self, key: Any, default: Any = None) -> Any:
        """The stored value, or ``default`` if absent/corrupt/foreign.

        A record whose schema version, key, or checksum does not match
        is reported (``checkpoint.corrupt``) and treated as missing.
        """
        path = self._path(key)
        if not path.exists():
            return default
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            log_event(
                "checkpoint.corrupt",
                path=path.name,
                reason=f"unreadable:{type(exc).__name__}",
            )
            return default
        if not isinstance(record, dict) or record.get("schema") != SCHEMA_VERSION:
            log_event("checkpoint.corrupt", path=path.name, reason="schema")
            return default
        if record.get("key") != _canonical_key(key):
            log_event("checkpoint.corrupt", path=path.name, reason="key")
            return default
        value = record.get("value")
        if record.get("checksum") != _checksum(value):
            log_event("checkpoint.corrupt", path=path.name, reason="checksum")
            return default
        return value

    def contains(self, key: Any) -> bool:
        """Whether a *valid* record exists for ``key``."""
        return self.get(key, default=_MISSING) is not _MISSING

    __contains__ = contains

    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """``(key, value)`` of every record :meth:`get` would return,
        each file read once."""
        for path in sorted(self.directory.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError):
                continue
            if (
                isinstance(record, dict)
                and record.get("schema") == SCHEMA_VERSION
                and record.get("checksum") == _checksum(record.get("value"))
                and self._path(record.get("key")) == path
            ):
                yield record["key"], record["value"]

    def keys(self) -> Iterator[Any]:
        """The keys of every valid record in the store."""
        for key, _ in self.items():
            yield key

    def delete(self, key: Any) -> bool:
        """Remove ``key``'s record if present; returns whether it existed."""
        path = self._path(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every record; returns how many were deleted."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self.directory)!r})"


def restore_list(value: Any) -> List[Any]:
    """JSON round-trips tuples as lists; normalise back to a list of tuples.

    Helper for callers whose checkpointed values are lists of pair-like
    records (the monitor's ``pairs``): every inner list becomes a tuple.
    """
    return [tuple(item) if isinstance(item, list) else item for item in value]
