"""Failure-recovery primitives for the signalling path.

The paper's protocol crosses many administrative domains, and every hop
adds an independent failure mode: a peer channel can lose or delay a
message, a neighbouring BB can crash between two admissions, a policy
server or the certificate repository can stop answering.  This module
holds the three small, deterministic mechanisms the hop-by-hop engine
uses to survive them:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  seeded jitter (never a global RNG: the whole schedule must replay
  under a fixed seed);
* :class:`Deadline` — an absolute end-to-end signalling deadline carried
  in the RAR and checked against *modelled* elapsed time at every hop,
  so retries at an early hop shrink the budget of every later hop;
* :class:`CircuitBreaker` — a per-peer-link closed/open/half-open gate
  that fails fast once a link has proven itself down, and probes it
  again after a quiet period on the simulated clock.

Everything here runs on simulated time supplied by the caller; nothing
reads a wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.obs import decisions

__all__ = ["RetryPolicy", "Deadline", "CircuitBreaker", "BreakerPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``max_attempts`` counts the first try: ``max_attempts=4`` means one
    attempt plus at most three retries.  The backoff before retry *n*
    (1-based) is ``base_backoff_s * multiplier**(n-1)``, stretched by up
    to ``jitter`` of itself using the injected RNG — jitter decorrelates
    retry storms from concurrent requests without breaking determinism.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5

    def backoff_s(self, attempt: int, rng: random.Random | None = None) -> float:
        """Modelled delay before retry *attempt* (1 = first retry)."""
        if attempt < 1:
            return 0.0
        base = self.base_backoff_s * self.multiplier ** (attempt - 1)
        if rng is None or self.jitter <= 0.0:
            return base
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class Deadline:
    """An absolute point on the modelled clock after which signalling for
    one request must stop trying and deny instead."""

    expires_at: float

    def remaining(self, now: float) -> float:
        return self.expires_at - now

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def check(self, now: float, *, what: str) -> None:
        if self.expired(now):
            raise DeadlineExceededError(
                f"signalling deadline exceeded before {what} "
                f"(deadline t={self.expires_at:.3f}, now t={now:.3f})"
            )


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs for :class:`CircuitBreaker` instances."""

    failure_threshold: int = 4
    reset_timeout_s: float = 30.0


class CircuitBreaker:
    """A per-peer-link circuit breaker on simulated time.

    States: ``closed`` (normal), ``open`` (failing fast), ``half_open``
    (one probe allowed after the reset timeout).  A success anywhere
    closes the breaker; a failure in half-open re-opens it immediately.
    Transitions emit ``BREAKER`` events and a transition counter so an
    operator can see exactly when a link was declared down.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, link: str, policy: BreakerPolicy | None = None) -> None:
        self.link = link
        self.policy = policy if policy is not None else BreakerPolicy()
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        #: Transition history as ``(from, to, at_time)`` — test hook and
        #: operator breadcrumb.
        self.transitions: list[tuple[str, str, float]] = []

    def _transition(self, new_state: str, now: float) -> None:
        if new_state == self.state:
            return
        old = self.state
        self.state = new_state
        self.transitions.append((old, new_state, now))
        decisions.record(
            "breaker", at_time=now, reason=f"{old} -> {new_state}",
            link=self.link, to=new_state,
        )

    def allow(self, now: float) -> bool:
        """May a message be sent over this link right now?"""
        if self.state == self.OPEN:
            if now - self.opened_at >= self.policy.reset_timeout_s:
                self._transition(self.HALF_OPEN, now)
                return True
            return False
        return True

    def check(self, now: float) -> None:
        if not self.allow(now):
            raise CircuitOpenError(
                f"circuit breaker open for link {self.link} "
                f"(since t={self.opened_at:.3f})"
            )

    def record_success(self, now: float) -> None:
        self.failures = 0
        self._transition(self.CLOSED, now)

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if (
            self.state == self.HALF_OPEN
            or self.failures >= self.policy.failure_threshold
        ):
            self.opened_at = now
            self._transition(self.OPEN, now)
