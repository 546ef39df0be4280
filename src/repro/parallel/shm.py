"""Shared-memory CSR arenas: zero-copy graph state for worker pools.

The executor's worker state used to reach each pool worker by value —
inherited page-by-page under ``fork`` (copy-on-write, but a copy per
worker as soon as refcounts touch the pages) and fully re-pickled under
``spawn``.  For CSR-backed state (frozen :class:`~repro.graph.csr.CSRGraph`
views, the t1 → t2 index map of a snapshot pair) that copy is pure
waste: the arrays are immutable for the lifetime of the pool.

:class:`SharedCsrArena` publishes every such array into **one**
``multiprocessing.shared_memory`` segment, created once per pool:

* :meth:`SharedCsrArena.maybe_publish` decomposes a worker-state dict —
  ndarray / ``CSRGraph`` values become 64-byte-aligned array slots in
  the segment; everything else
  stays ordinary pickled state.  Returns ``None`` when nothing in the
  state is shareable (e.g. weighted dict-graph state).
* workers receive only the tiny :class:`ArenaManifest` (segment name,
  array specs, rebuild metadata) through the pool initializer and
  attach **read-only** numpy views via :func:`attach_state` — no graph
  bytes cross the process boundary.
* the parent can materialise the same views with
  :meth:`SharedCsrArena.parent_state`, so degraded-chunk recomputation
  reuses the segment instead of re-touching the original objects.

Lifecycle is create → attach* → close → unlink, crash-safe at both
ends.  Pool workers — ``fork`` and ``spawn`` alike — share the parent's
``resource_tracker`` process, and POSIX shm registrations are a *set*
per tracker, so a worker's attach is a registration no-op:

* **worker kill -9** — nothing happens to the segment (the shared
  tracker only acts when the whole process tree is gone); the parent's
  ``finally`` block unlinks exactly once and the run completes through
  the executor's degraded-chunk path.
* **parent kill -9** — the resource tracker outlives the tree and
  unlinks every segment the parent registered, so hard parent death
  leaks nothing (``tests/test_parallel_shm.py`` pins both).

Segment names are derived from a seeded run id (:func:`derive_run_id`)
— never the wall clock or the parent pid — so reruns are deterministic
and the R014 lint rule can audit the property statically; name
collisions with a stale segment resolve by deterministic suffix
probing, never by unlinking a possibly-live segment.
"""

from __future__ import annotations

import atexit
import hashlib
import re
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Prefix of every arena segment — the leak check in CI asserts nothing
#: matching ``/dev/shm/repro_*`` survives a suite.
SEGMENT_PREFIX = "repro_"

#: Deterministic collision probes before giving up on a run id.
_MAX_PROBES = 64

#: Array slot alignment inside the segment (cache-line friendly).
_ALIGN = 64

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


def derive_run_id(*parts: object) -> str:
    """A deterministic 12-hex run id from seed-derived parts.

    Hash of the ``repr`` of every part — callers pass the run's seed and
    value-determining parameters, never the clock or a pid, so the same
    logical run always names the same segment (collision safety comes
    from :func:`_create_segment`'s suffix probing, not from entropy).
    """
    digest = hashlib.sha256(
        "\x1f".join(repr(p) for p in parts).encode("utf-8")
    )
    return digest.hexdigest()[:12]


def segment_name(run_id: str) -> str:
    """The shm segment name for a run id (validated, prefixed)."""
    if not _RUN_ID_RE.match(run_id):
        raise ValueError(
            f"run id {run_id!r} must match {_RUN_ID_RE.pattern}"
        )
    return f"{SEGMENT_PREFIX}{run_id}"


def leaked_segments() -> List[str]:
    """Names of every live ``repro_*`` segment on this host (sorted)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-POSIX hosts
        return []
    return sorted(p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}*"))


@dataclass(frozen=True)
class ArraySpec:
    """One published array: where it lives in the segment and its shape."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        """Payload size of this slot in bytes."""
        size = int(np.dtype(self.dtype).itemsize)
        for dim in self.shape:
            size *= int(dim)
        return size


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a worker needs to rebuild the state from the segment.

    ``objects`` lists ``(state_key, kind, metadata)`` rebuild specs in
    state-dict order; ``kind`` selects the recomposition (``"array"``
    or ``"csr"``) and ``metadata`` carries the non-array remainder (the
    node list of a CSR universe).
    """

    segment: str
    nbytes: int
    arrays: Tuple[ArraySpec, ...]
    objects: Tuple[Tuple[str, str, Any], ...]


#: What the pool initializer ships: the manifest plus the plain
#: (non-shareable) part of the state, pickled normally.
WorkerPayload = Tuple[ArenaManifest, Dict[str, Any]]


def _decompose(
    state: Mapping[str, Any],
) -> Tuple[
    Dict[str, np.ndarray], List[Tuple[str, str, Any]], Dict[str, Any]
]:
    """Split a state dict into shareable arrays, rebuild specs, and rest."""
    from repro.graph.csr import CSRGraph

    arrays: Dict[str, np.ndarray] = {}
    objects: List[Tuple[str, str, Any]] = []
    plain: Dict[str, Any] = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
            objects.append((key, "array", None))
        elif isinstance(value, CSRGraph):
            arrays[f"{key}.indptr"] = value.indptr
            arrays[f"{key}.indices"] = value.indices
            objects.append((key, "csr", list(value.nodes)))
        else:
            plain[key] = value
    return arrays, objects, plain


def _recompose(
    views: Dict[str, np.ndarray],
    objects: Tuple[Tuple[str, str, Any], ...],
    plain: Dict[str, Any],
) -> Dict[str, Any]:
    """Rebuild the original state dict over arena-backed views."""
    from repro.graph.csr import CSRGraph

    state: Dict[str, Any] = {}
    for key, kind, meta in objects:
        if kind == "array":
            state[key] = views[key]
        elif kind == "csr":
            state[key] = CSRGraph(
                list(meta), views[f"{key}.indptr"], views[f"{key}.indices"]
            )
        else:  # pragma: no cover - manifest kinds are closed above
            raise ValueError(f"unknown arena object kind {kind!r}")
    state.update(plain)
    return state


def _views_over(
    shm: shared_memory.SharedMemory,
    manifest: ArenaManifest,
    writeable: bool,
) -> Dict[str, np.ndarray]:
    views: Dict[str, np.ndarray] = {}
    for spec in manifest.arrays:
        view: np.ndarray = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        if not writeable:
            view.flags.writeable = False
        views[spec.key] = view
    return views


def _create_segment(run_id: str, size: int) -> shared_memory.SharedMemory:
    """Create the run's segment, probing deterministic suffixes on clash.

    A stale same-name segment (a previous hard-killed run whose tracker
    also died) must never be unlinked here — it might equally be a
    *live* concurrent run — so collisions step to ``<name>-1``,
    ``<name>-2``, … instead.
    """
    base = segment_name(run_id)
    for probe in range(_MAX_PROBES):
        name = base if probe == 0 else f"{base}-{probe}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:
            continue
    raise RuntimeError(
        f"could not allocate a shared-memory segment for run id "
        f"{run_id!r} after {_MAX_PROBES} probes"
    )


class SharedCsrArena:
    """One pool's shared-memory segment plus its rebuild manifest.

    Create with :meth:`maybe_publish` (or :meth:`publish`) in the
    parent; ship :meth:`worker_payload` through the pool initializer;
    call :meth:`destroy` (idempotent) in a ``finally`` once the pool —
    including any degraded in-parent recomputation — is done with it.
    Usable as a context manager for the same lifecycle.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: ArenaManifest,
        plain: Dict[str, Any],
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self._plain = plain
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------
    @classmethod
    def maybe_publish(
        cls, state: Mapping[str, Any], *, run_id: str
    ) -> Optional["SharedCsrArena"]:
        """Publish the state's shareable arrays, or ``None`` if it has none."""
        arrays, objects, plain = _decompose(state)
        if not arrays:
            return None
        specs: List[ArraySpec] = []
        offset = 0
        contiguous: List[np.ndarray] = []
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous.append(array)
            offset = -(-offset // _ALIGN) * _ALIGN
            specs.append(
                ArraySpec(
                    key=key,
                    dtype=array.dtype.str,
                    shape=tuple(array.shape),
                    offset=offset,
                )
            )
            offset += array.nbytes
        total = max(1, offset)
        shm = _create_segment(run_id, total)
        for spec, array in zip(specs, contiguous):
            dst: np.ndarray = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            np.copyto(dst, array)
        manifest = ArenaManifest(
            segment=shm.name,
            nbytes=total,
            arrays=tuple(specs),
            objects=tuple(objects),
        )
        return cls(shm, manifest, plain)

    @classmethod
    def publish(
        cls, state: Mapping[str, Any], *, run_id: str
    ) -> "SharedCsrArena":
        """Like :meth:`maybe_publish` but shareable arrays are required."""
        arena = cls.maybe_publish(state, run_id=run_id)
        if arena is None:
            raise ValueError(
                "state contains no shareable arrays (ndarray / CSRGraph "
                "values)"
            )
        return arena

    # ------------------------------------------------------------------
    @property
    def segment(self) -> str:
        """The shm segment name (``repro_<runid>`` plus probe suffix)."""
        return self._shm.name

    @property
    def segment_bytes(self) -> int:
        """Requested segment payload size in bytes."""
        return self.manifest.nbytes

    def worker_payload(self) -> WorkerPayload:
        """What the pool initializer ships: manifest + plain state."""
        return self.manifest, dict(self._plain)

    def parent_state(self) -> Dict[str, Any]:
        """The state dict rebuilt over this segment's read-only views.

        Degraded-chunk recomputation installs this instead of the
        original state, so the in-parent fallback reads the same bytes
        the workers did — no re-pickle, no second copy.
        """
        if self._closed:
            raise ValueError("arena is closed")
        views = _views_over(self._shm, self.manifest, writeable=False)
        return _recompose(views, self.manifest.objects, dict(self._plain))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        When :meth:`parent_state` views are still alive the mapping
        cannot be released yet (``BufferError``); it is freed when the
        last view is collected — the segment name is already unlinked
        by then, so nothing leaks either way.
        """
        if not self._closed:
            self._closed = True
            try:
                self._shm.close()
            except BufferError:
                pass

    def unlink(self) -> None:
        """Remove the segment from the system (idempotent, creator-only)."""
        if not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass

    def destroy(self) -> None:
        """Unlink then close — the parent's ``finally`` teardown."""
        self.unlink()
        self.close()

    def __enter__(self) -> "SharedCsrArena":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.destroy()


def _close_quietly(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        # Worker state still holds views at interpreter exit; the OS
        # reclaims the mapping with the process.
        pass


def attach_state(payload: WorkerPayload) -> Dict[str, Any]:
    """Worker side: attach the segment and rebuild the state over views.

    Called by the pool initializer.  The mapping is closed at worker
    exit (``atexit``).  The attach re-registers the name with the
    resource tracker the worker shares with the creating parent — a
    set-semantics no-op, so the parent's single registration (and its
    crash-safety guarantee) is untouched and only the parent unlinks.
    Meant for pool workers; a process with its *own* resource tracker
    attaching here would unlink the segment at exit.
    """
    manifest, plain = payload
    shm = shared_memory.SharedMemory(name=manifest.segment)
    atexit.register(_close_quietly, shm)
    views = _views_over(shm, manifest, writeable=False)
    return _recompose(views, manifest.objects, plain)
