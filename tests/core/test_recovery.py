"""Unit tests for the recovery primitives (retry, deadline, breaker)."""

import random

import pytest

from repro.core.recovery import (
    BACKOFF_JITTER,
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_S,
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RESET_TIMEOUT_S,
    CircuitBreaker,
    Deadline,
    backoff_s,
)
from repro.errors import CircuitOpenError, DeadlineExceededError


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        assert backoff_s(1) == pytest.approx(BASE_BACKOFF_S)
        assert backoff_s(2) == pytest.approx(BASE_BACKOFF_S * BACKOFF_MULTIPLIER)
        assert backoff_s(3) == pytest.approx(
            BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** 2
        )

    def test_non_positive_attempt_is_free(self):
        assert backoff_s(0) == 0.0

    def test_jitter_is_bounded_and_seed_deterministic(self):
        first = [backoff_s(n, random.Random(42)) for n in (1, 2, 3)]
        second = [backoff_s(n, random.Random(42)) for n in (1, 2, 3)]
        assert first == second
        for attempt, value in enumerate(first, start=1):
            base = BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1)
            assert base <= value <= base * (1.0 + BACKOFF_JITTER)

    def test_no_rng_means_no_jitter(self):
        assert backoff_s(1) == BASE_BACKOFF_S
        assert backoff_s(1, random.Random(42)) > BASE_BACKOFF_S


class TestDeadline:
    def test_remaining_and_expired(self):
        deadline = Deadline(10.0)
        assert deadline.remaining(4.0) == pytest.approx(6.0)
        assert not deadline.expired(9.999)
        assert deadline.expired(10.0)

    def test_check_raises_with_context(self):
        with pytest.raises(DeadlineExceededError, match="before hop B"):
            Deadline(1.0).check(2.0, what="hop B")
        Deadline(1.0).check(0.5, what="hop B")  # within budget: silent


class TestCircuitBreaker:
    def opened(self, at=0.0):
        """A breaker that has just opened at *at*."""
        breaker = CircuitBreaker("A|B")
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(at)
        assert breaker.state == CircuitBreaker.OPEN
        return breaker

    def test_opens_after_threshold_failures(self):
        breaker = CircuitBreaker("A|B")
        for n in range(1, BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(float(n))
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(float(BREAKER_FAILURE_THRESHOLD))
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError, match="A|B"):
            breaker.check(BREAKER_FAILURE_THRESHOLD + 1.0)

    def test_half_open_probe_after_reset_timeout(self):
        breaker = self.opened(0.0)
        assert not breaker.allow(BREAKER_RESET_TIMEOUT_S / 2)
        assert breaker.allow(BREAKER_RESET_TIMEOUT_S)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_success_closes_failure_reopens_from_half_open(self):
        reset = BREAKER_RESET_TIMEOUT_S
        breaker = self.opened(0.0)
        breaker.allow(reset)  # -> half-open
        breaker.record_failure(reset + 0.5)  # one failure reopens immediately
        assert breaker.state == CircuitBreaker.OPEN

        breaker.allow(2 * reset + 5.0)  # -> half-open again
        breaker.record_success(2 * reset + 5.5)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0

    def test_transitions_recorded(self):
        reset = BREAKER_RESET_TIMEOUT_S
        breaker = self.opened(1.0)
        breaker.allow(reset + 1.0)
        breaker.record_success(reset + 2.0)
        assert [(a, b) for a, b, _ in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
