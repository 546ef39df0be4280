"""Wire protocol of the always-on convergence query service.

One request per line, one response per line, both compact sorted-key
JSON (the same canonical encoding the WAL uses), so any given answer
has exactly one byte representation — the property the differential
oracle (`tests/test_service_oracle.py`) compares against the batch CLI.

Request shape::

    {"id": "c1", "verb": "topk", "args": {"k": 5}, "deadline_ms": 100}

* ``verb`` — one of :data:`QUERY_VERBS` (data queries, answered from
  versioned state) or :data:`CONTROL_VERBS` (service operations);
* ``args`` — verb-specific object (optional, defaults empty);
* ``id`` — opaque client token echoed back verbatim (optional);
* ``deadline_ms`` — relative deadline budget; a request still queued
  when it expires is rejected *before* any computation runs.

Response shape::

    {"id": "c1", "ok": true, "version": 3, "stale": false,
     "result": {...}}
    {"id": "c1", "ok": false,
     "error": {"code": "over_capacity", "message": "..."}}

``version`` is the runtime's state version (windows closed so far);
``stale`` marks answers served while the advancement breaker is open
(degraded mode — the answer is still exact *for its version*).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple

# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------
#: Data queries: pure functions of ``(state version, args)``, cacheable
#: and coalescible, byte-identical to ``repro query`` on the same state.
QUERY_VERBS: Tuple[str, ...] = ("topk", "node")

#: Service operations: advance the stream, report health, drain.
CONTROL_VERBS: Tuple[str, ...] = ("advance", "health")

VERBS: Tuple[str, ...] = QUERY_VERBS + CONTROL_VERBS

# ----------------------------------------------------------------------
# Structured error codes (distinct, pinned by tests)
# ----------------------------------------------------------------------
E_BAD_REQUEST = "bad_request"
E_UNKNOWN_VERB = "unknown_verb"
E_OVER_DEADLINE = "over_deadline"
E_OVER_CAPACITY = "over_capacity"
E_DRAINING = "draining"
E_SHED = "shed"
E_ADVANCE_FAILED = "advance_failed"
E_INTERNAL = "internal"

ERROR_CODES: Tuple[str, ...] = (
    E_BAD_REQUEST, E_UNKNOWN_VERB, E_OVER_DEADLINE, E_OVER_CAPACITY,
    E_DRAINING, E_SHED, E_ADVANCE_FAILED, E_INTERNAL,
)


class ProtocolError(ValueError):
    """A malformed request; carries the structured error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def canonical_json(payload: Any) -> str:
    """The one byte representation of a JSON value (sorted, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_args(args: Mapping[str, Any]) -> str:
    """Canonical form of a request's args — the coalescing/cache key."""
    return canonical_json(dict(args))


@dataclass(frozen=True)
class Request:
    """One parsed, validated request."""

    verb: str
    args: Dict[str, Any] = field(default_factory=dict)
    request_id: Optional[Any] = None
    deadline_ms: Optional[int] = None

    @cached_property
    def key(self) -> Tuple[str, str]:
        """The coalescing identity: ``(verb, canonical args)``.

        Encoded on first use and kept: admission, the answer cache and
        settlement all read it.  ``args`` must not change after that.
        """
        return (self.verb, canonical_args(self.args))


def parse_request(line: str) -> Request:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` with :data:`E_BAD_REQUEST` for
    malformed JSON / fields and :data:`E_UNKNOWN_VERB` for a verb the
    service does not speak.
    """
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(
            E_BAD_REQUEST, f"request is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            E_BAD_REQUEST,
            f"request must be a JSON object, got {type(payload).__name__}",
        )
    unknown = sorted(
        set(payload) - {"verb", "args", "id", "deadline_ms"}
    )
    if unknown:
        raise ProtocolError(
            E_BAD_REQUEST, f"unknown request field(s): {', '.join(unknown)}"
        )
    verb = payload.get("verb")
    if not isinstance(verb, str):
        raise ProtocolError(E_BAD_REQUEST, "request lacks a string 'verb'")
    if verb not in VERBS:
        raise ProtocolError(
            E_UNKNOWN_VERB,
            f"unknown verb {verb!r}; known: {', '.join(VERBS)}",
        )
    args = payload.get("args", {})
    if not isinstance(args, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"'args' must be an object, got {args!r}"
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, int):
            raise ProtocolError(
                E_BAD_REQUEST,
                f"'deadline_ms' must be an integer, got {deadline_ms!r}",
            )
        if deadline_ms < 1:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"'deadline_ms' must be >= 1, got {deadline_ms}",
            )
    return Request(
        verb=verb,
        args=args,
        request_id=payload.get("id"),
        deadline_ms=deadline_ms,
    )


def encode_response(
    request_id: Optional[Any],
    *,
    version: int,
    stale: bool,
    result: Any,
) -> str:
    """One successful response line (without the trailing newline)."""
    return canonical_json({
        "id": request_id,
        "ok": True,
        "version": version,
        "stale": stale,
        "result": result,
    })


def encode_error(
    request_id: Optional[Any], code: str, message: str
) -> str:
    """One error response line (without the trailing newline)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return canonical_json({
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    })
