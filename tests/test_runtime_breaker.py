"""Circuit breaker: pinned seeded transition sequences and round-trips."""

import random

import pytest

from repro.resilience import capture_events
from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


def drive(breaker, outcomes):
    """Feed a string of 's'/'f' request outcomes; returns engine choices.

    Each character is one request: ``allow()`` decides the path, and the
    outcome is recorded only when the protected path was taken (denied
    requests are the fallback's business, with nothing to record).
    """
    choices = []
    for outcome in outcomes:
        allowed = breaker.allow()
        choices.append("direct" if allowed else "fallback")
        if allowed:
            if outcome == "s":
                breaker.record_success()
            else:
                breaker.record_failure()
    return choices


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"probe_after": 0},
            {"probe_after": 8, "max_probe_after": 4},
            {"jitter": -0.1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestStateMachine:
    def test_stays_closed_on_successes(self):
        breaker = CircuitBreaker(seed=0)
        assert drive(breaker, "ssss") == ["direct"] * 4
        assert breaker.state == CLOSED
        assert breaker.transitions == []

    def test_nonconsecutive_failures_do_not_trip(self):
        breaker = CircuitBreaker(failure_threshold=3, seed=0)
        drive(breaker, "ffsffsff")
        assert breaker.state == CLOSED

    def test_threshold_trips_open(self):
        breaker = CircuitBreaker(failure_threshold=3, seed=0)
        drive(breaker, "fff")
        assert breaker.state == OPEN
        assert breaker.transitions == [(OPEN, "threshold")]

    def test_pinned_trip_probe_reclose_sequence(self):
        """The full seeded lifecycle, pinned exactly.

        seed=0, jitter=0: waits are deterministic powers of two, so the
        engine-choice sequence is a pure function of the outcome string.
        """
        breaker = CircuitBreaker(
            failure_threshold=2, probe_after=2, jitter=0.0, seed=0
        )
        # 2 failures trip it; wait=2 denials; probe fails -> re-open
        # with wait=4; probe succeeds -> closed again.
        choices = drive(breaker, "ff" + "xx" + "f" + "xxxx" + "s" + "ss")
        assert choices == [
            "direct", "direct",        # failures tripping the breaker
            "fallback", "fallback",    # OPEN: wait=2 denials
            "direct",                  # HALF_OPEN probe (fails)
            "fallback", "fallback", "fallback", "fallback",  # wait=4
            "direct",                  # HALF_OPEN probe (succeeds)
            "direct", "direct",        # CLOSED again
        ]
        assert breaker.transitions == [
            (OPEN, "threshold"),
            (HALF_OPEN, "probe_due"),
            (OPEN, "probe_failed"),
            (HALF_OPEN, "probe_due"),
            (CLOSED, "probe_succeeded"),
        ]
        assert breaker.state == CLOSED

    def test_pinned_jittered_waits_for_seed_7(self):
        """Seeded jitter: the exact wait counts for one seed, pinned so
        any change to the draw order is caught."""
        breaker = CircuitBreaker(
            failure_threshold=1, probe_after=2, max_probe_after=16,
            jitter=0.5, seed=7,
        )
        waits = []
        for _ in range(4):
            breaker.allow()
            breaker.record_failure()  # trip (or fail the probe)
            denied = 0
            while not breaker.allow():
                denied += 1
            waits.append(denied)
        assert waits == [2, 4, 10, 16]  # pinned for seed=7

    def test_wait_growth_is_clamped(self):
        breaker = CircuitBreaker(
            failure_threshold=1, probe_after=2, max_probe_after=4,
            jitter=0.0, seed=0,
        )
        waits = []
        for _ in range(5):
            breaker.allow()
            breaker.record_failure()
            denied = 0
            while not breaker.allow():
                denied += 1
            waits.append(denied)
        assert waits == [2, 4, 4, 4, 4]

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, seed=0)
        drive(breaker, "fsfsfs")
        assert breaker.state == CLOSED

    def test_reclose_resets_trip_count(self):
        """After a successful probe the next trip's wait starts over."""
        breaker = CircuitBreaker(
            failure_threshold=1, probe_after=2, jitter=0.0, seed=0
        )
        # Trip 1: wait 2, probe succeeds.
        drive(breaker, "f" + "xx" + "s")
        assert breaker.state == CLOSED
        # Trip 2 (after re-close): wait is back to 2, not 4.
        drive(breaker, "f")
        denied = 0
        while not breaker.allow():
            denied += 1
        assert denied == 2

    def test_transitions_are_logged(self):
        breaker = CircuitBreaker(failure_threshold=1, seed=0)
        with capture_events() as events:
            drive(breaker, "f")
        kinds = [kind for kind, _ in events]
        assert "breaker.transition" in kinds


class TestCheckpointRoundTrip:
    def test_payload_roundtrip_preserves_schedule(self):
        """A restored breaker draws the same future waits the original
        would have — the byte-identical-recovery requirement."""
        a = CircuitBreaker(
            failure_threshold=1, probe_after=2, jitter=0.5, seed=3
        )
        drive(a, "f" + "xxx")  # trip, spend some of the wait
        payload = a.to_payload()

        b = CircuitBreaker(
            failure_threshold=1, probe_after=2, jitter=0.5, seed=3
        )
        b.restore(payload)
        assert b.state == a.state
        assert b.denied_since_open == a.denied_since_open
        assert b.current_wait == a.current_wait

        # Both continue identically for a long outcome tape.
        tape = "fsxfxxsfxs" * 4
        assert drive(a, tape) == drive(b, tape)
        assert a.state == b.state

    def test_payload_is_json_stable(self):
        import json

        breaker = CircuitBreaker(seed=1)
        drive(breaker, "ff")
        payload = breaker.to_payload()
        assert json.loads(json.dumps(payload)) == json.loads(
            json.dumps(payload)
        )
        restored = CircuitBreaker(seed=1)
        restored.restore(json.loads(json.dumps(payload)))
        assert restored.consecutive_failures == breaker.consecutive_failures

    def test_payload_records_seed_and_draws_not_the_rng(self):
        breaker = CircuitBreaker(failure_threshold=1, seed=5)
        drive(breaker, "f" + "x" * 8 + "f")
        opened = [state for state, _ in breaker.transitions].count(OPEN)
        assert opened == 3  # one jitter draw per trip
        payload = breaker.to_payload()
        assert payload["schema"] == 2
        assert (payload["seed"], payload["draws"]) == (5, opened)
        assert "rng" not in payload

    @pytest.mark.parametrize("trips", [0, 1, 3])
    def test_schema_1_payload_restores_like_its_schema_2_form(self, trips):
        """A schema-1 payload (the generator's own state, as records
        written before schema 2 hold it) and the schema-2 payload of the
        same breaker restore to the same future waits."""
        breaker = CircuitBreaker(failure_threshold=1, jitter=0.5, seed=9)
        drive(breaker, "f" + "xxxxxxf" * trips)
        version, internal, gauss = breaker._rng.getstate()
        legacy = {
            key: value for key, value in breaker.to_payload().items()
            if key not in ("seed", "draws")
        }
        legacy.update(schema=1, rng=[version, list(internal), gauss])
        from_legacy = CircuitBreaker(failure_threshold=1, jitter=0.5, seed=9)
        from_legacy.restore(legacy)
        from_current = CircuitBreaker(failure_threshold=1, jitter=0.5, seed=9)
        from_current.restore(breaker.to_payload())
        # A schema-1 restore finds the draws, so it writes schema 2 next.
        assert from_legacy.to_payload() == breaker.to_payload()
        tape = "fsxfxxsfxsffxxxxf" * 4
        assert drive(from_legacy, tape) == drive(from_current, tape)
        assert from_legacy.to_payload() == from_current.to_payload()
        assert from_legacy.transitions == from_current.transitions

    @pytest.mark.parametrize("draws", [0, 1, 311, 312, 313, 624])
    def test_schema_1_payload_restores_at_every_twist_position(self, draws):
        """Draw counts on both sides of the generator's 312-draw
        regeneration: the search finds the exact count at each."""
        written = CircuitBreaker(failure_threshold=1, seed=9)
        written.restore(dict(written.to_payload(), draws=draws))
        version, internal, gauss = written._rng.getstate()
        legacy = {
            key: value for key, value in written.to_payload().items()
            if key not in ("seed", "draws")
        }
        legacy.update(schema=1, rng=[version, list(internal), gauss])
        restored = CircuitBreaker(failure_threshold=1, seed=9)
        restored.restore(legacy)
        assert restored.to_payload()["draws"] == draws
        assert restored._rng.getstate() == written._rng.getstate()
        tape = "fsxfxxsfxsffxxxxf" * 2
        assert drive(restored, tape) == drive(written, tape)

    def test_schema_1_payload_of_another_seed_is_rejected(self):
        breaker = CircuitBreaker(failure_threshold=1, seed=9)
        drive(breaker, "f")
        version, internal, gauss = breaker._rng.getstate()
        legacy = dict(breaker.to_payload(), schema=1,
                      rng=[version, list(internal), gauss])
        with pytest.raises(ValueError, match="seed 10"):
            CircuitBreaker(failure_threshold=1, seed=10).restore(legacy)

    def test_another_seed_compares_one_state_per_twist(self, monkeypatch):
        """Refusing a foreign payload compares the generator state only
        at the draw counts of the stored position: 211 of 65,537."""
        from repro.runtime import breaker as breaker_module

        compared = []

        class CountingRandom(random.Random):
            def getstate(self):
                compared.append(None)
                return super().getstate()

        version, internal, gauss = random.Random(9).getstate()
        monkeypatch.setattr(breaker_module.random, "Random", CountingRandom)
        with pytest.raises(ValueError, match="seed 10"):
            breaker_module._draws_to(10, [version, list(internal), gauss])
        assert len(compared) == (1 << 16) // 312 + 1

    def test_schema_mismatch_rejected(self):
        breaker = CircuitBreaker(seed=0)
        payload = breaker.to_payload()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            CircuitBreaker(seed=0).restore(payload)

    def test_unknown_state_rejected(self):
        breaker = CircuitBreaker(seed=0)
        payload = breaker.to_payload()
        payload["state"] = "exploded"
        with pytest.raises(ValueError, match="state"):
            CircuitBreaker(seed=0).restore(payload)
