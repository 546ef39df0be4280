"""Clock-free circuit breaker gating the runtime's validated direct attempt.

The streaming runtime first computes each window on its snapshot pair
as given, after checking that ``G_t1`` is a subgraph of ``G_t2``, but a
stream that keeps violating that precondition (deletions, re-keyed
nodes) makes every attempt a wasted validation pass before the
inevitable fallback on the repaired pair.  The breaker turns that
per-window retry into a state machine:

* **CLOSED** — attempts are made; ``failure_threshold`` consecutive
  failures trip the breaker OPEN.
* **OPEN** — attempts are skipped outright (the fallback is used) for a
  *probe wait* counted in denied requests, not seconds: wall-clock
  waits would make recovery runs diverge from uninterrupted ones, and
  the runtime's request cadence (one per window) is the natural clock.
* **HALF_OPEN** — one probe attempt is allowed through.  Success closes
  the breaker; failure re-opens it with a longer wait (doubled per
  consecutive trip, clamped at ``max_probe_after``).

Probe waits carry seeded jitter from ``random.Random(seed)`` so
co-scheduled breakers don't probe in lockstep, while any given breaker's
schedule — and therefore every engine decision a recovered run replays —
is a pure function of ``(config, request history)``.  The full state
round-trips through :meth:`~CircuitBreaker.to_payload` /
:meth:`~CircuitBreaker.restore`, which is how checkpoints make recovered
runs byte-identical to uninterrupted ones.  The RNG travels as its seed
and the number of jitter draws taken from it, which :meth:`restore`
replays: a few bytes where the generator's own state is 625 words.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.resilience.events import log_event

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATES = (CLOSED, OPEN, HALF_OPEN)

BREAKER_SCHEMA_VERSION = 2

#: How many draws a schema-1 payload's RNG state is searched over.  One
#: draw is taken per trip, and a trip takes at least one window.
_LEGACY_DRAW_LIMIT = 1 << 16
#: Draws between two states at the same generator position.
_DRAWS_PER_TWIST = 312


class CircuitBreaker:
    """Consecutive-failure breaker with a request-counted probe schedule.

    Parameters
    ----------
    failure_threshold:
        Consecutive :meth:`record_failure` calls (while CLOSED) that
        trip the breaker.
    probe_after:
        Base number of denied requests an OPEN breaker waits before
        moving to HALF_OPEN; doubles on each consecutive re-trip.
    max_probe_after:
        Ceiling on the (pre-jitter) probe wait.
    jitter:
        Each wait is scaled by ``1 + Uniform(0, jitter)`` drawn from the
        breaker's own seeded RNG, then rounded to an integer count.
    seed:
        Seeds the jitter RNG; the whole schedule is deterministic.

    The caller drives the breaker with three methods: :meth:`allow`
    (once per request — answers "may I try the protected path?"),
    then exactly one of :meth:`record_success` / :meth:`record_failure`
    whenever ``allow`` returned ``True``.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        probe_after: int = 2,
        max_probe_after: int = 16,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if probe_after < 1:
            raise ValueError(f"probe_after must be >= 1, got {probe_after}")
        if max_probe_after < probe_after:
            raise ValueError(
                "max_probe_after must be >= probe_after "
                f"({max_probe_after} < {probe_after})"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.failure_threshold = failure_threshold
        self.probe_after = probe_after
        self.max_probe_after = max_probe_after
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(seed)
        self._draws = 0
        self.state = CLOSED
        self.consecutive_failures = 0
        self.consecutive_trips = 0
        self.denied_since_open = 0
        self.current_wait = 0
        #: ``(state, reason)`` history — tests pin the exact sequence.
        self.transitions: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    def _transition(self, state: str, reason: str) -> None:
        self.state = state
        self.transitions.append((state, reason))
        log_event("breaker.transition", state=state, reason=reason)

    def _draw_wait(self) -> int:
        # _open runs after the trip counter was incremented, so the
        # first trip (counter 1) waits the base probe_after.
        base = min(
            self.max_probe_after,
            self.probe_after * (2 ** (self.consecutive_trips - 1)),
        )
        scaled = base * (1.0 + self._rng.uniform(0.0, self.jitter))
        self._draws += 1
        return max(1, int(scaled))

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the protected path may be tried for this request.

        While OPEN, each denial counts down the probe wait; when it is
        spent the breaker moves to HALF_OPEN and this request becomes
        the probe (allowed through).
        """
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            # One probe is already in flight per transition; a second
            # request before its outcome stays on the fallback path.
            return False
        if self.denied_since_open >= self.current_wait:
            self._transition(HALF_OPEN, "probe_due")
            return True
        self.denied_since_open += 1
        return False

    def record_success(self) -> None:
        """The protected path succeeded (call only after ``allow()``)."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.consecutive_trips = 0
            self._transition(CLOSED, "probe_succeeded")

    def record_failure(self) -> None:
        """The protected path failed (call only after ``allow()``)."""
        if self.state == HALF_OPEN:
            self.consecutive_trips += 1
            self._open("probe_failed")
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.consecutive_trips += 1
            self._open("threshold")

    def _open(self, reason: str) -> None:
        self.consecutive_failures = 0
        self.denied_since_open = 0
        self.current_wait = self._draw_wait()
        self._transition(OPEN, reason)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-stable snapshot of the full breaker state.

        The jitter RNG is recorded as its seed and the number of draws
        taken from it, so a restored breaker draws the *same* future
        probe waits an uninterrupted run would — required for
        byte-identical recovery.
        """
        return {
            "schema": BREAKER_SCHEMA_VERSION,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_trips": self.consecutive_trips,
            "denied_since_open": self.denied_since_open,
            "current_wait": self.current_wait,
            "seed": self.seed,
            "draws": self._draws,
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`to_payload` in place.

        Schema 2 re-seeds the RNG and replays its draws.  Schema 1
        recorded the generator's state instead; its draws are found by
        replaying this breaker's ``seed`` until the states match.
        Raises :class:`ValueError` on an unknown schema, an invalid
        state name or an RNG state the seed does not reach — a corrupt
        checkpoint must not half-restore.
        """
        schema = payload.get("schema")
        if schema not in (1, BREAKER_SCHEMA_VERSION):
            raise ValueError(f"breaker payload schema mismatch: {schema!r}")
        state = payload["state"]
        if state not in _STATES:
            raise ValueError(f"unknown breaker state {state!r}")
        if schema == 1:
            seed = self.seed
            draws = _draws_to(seed, payload["rng"])
        else:
            seed = int(payload["seed"])
            draws = int(payload["draws"])
            if draws < 0:
                raise ValueError(f"negative breaker draw count {draws}")
        rng = random.Random(seed)
        for _ in range(draws):
            rng.random()  # a jitter draw is one uniform(), one random()
        self.state = state
        self.consecutive_failures = int(payload["consecutive_failures"])
        self.consecutive_trips = int(payload["consecutive_trips"])
        self.denied_since_open = int(payload["denied_since_open"])
        self.current_wait = int(payload["current_wait"])
        self.seed = seed
        self._rng = rng
        self._draws = draws

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures}, "
            f"trips={self.consecutive_trips})"
        )


def _draws_to(seed: int, rng: List[Any]) -> int:
    """How many draws from ``random.Random(seed)`` reach the schema-1
    RNG state ``[version, words, gauss]``.

    The state's last word is the Mersenne Twister's position: 624 after
    seeding, and a draw takes two of the 624 words, so after ``d`` draws
    it is ``2·d`` modulo 624, read as 624 where that is 0.  Only draw
    counts congruent to half the stored position modulo 312 can match,
    and only those build a state tuple to compare.
    """
    version, internal, gauss = rng
    target = (version, tuple(internal), gauss)
    position = target[1][-1] if target[1] else None
    phase = (
        position // 2 % _DRAWS_PER_TWIST if isinstance(position, int) else None
    )
    replay = random.Random(seed)
    for draws in range(_LEGACY_DRAW_LIMIT + 1):
        if draws % _DRAWS_PER_TWIST == phase and replay.getstate() == target:
            return draws
        replay.random()
    raise ValueError(
        f"breaker payload's RNG state is not within {_LEGACY_DRAW_LIMIT} "
        f"draws of seed {seed}: a schema-1 payload restores only under "
        "the seed it was written with"
    )
