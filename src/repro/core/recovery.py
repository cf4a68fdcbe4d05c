"""Failure-recovery primitives for the signalling path.

The paper's protocol crosses many administrative domains, and every hop
adds an independent failure mode: a peer channel can lose or delay a
message, a neighbouring BB can crash between two admissions, a policy
server or the certificate repository can stop answering.  This module
holds the three small, deterministic mechanisms the hop-by-hop engine
uses to survive them, each with one fixed setting:

* the retry budget — :data:`MAX_ATTEMPTS` attempts, with the
  exponential backoff of :func:`backoff_s` and seeded jitter between
  them (never a global RNG: the whole schedule must replay under a
  fixed seed);
* :class:`Deadline` — an absolute end-to-end signalling deadline carried
  in the RAR and checked against *modelled* elapsed time at every hop,
  so retries at an early hop shrink the budget of every later hop;
* :class:`CircuitBreaker` — a per-peer-link closed/open/half-open gate
  that fails fast once :data:`BREAKER_FAILURE_THRESHOLD` failures have
  proven a link down, and probes it again after
  :data:`BREAKER_RESET_TIMEOUT_S` of quiet on the simulated clock.

Everything here runs on simulated time supplied by the caller; nothing
reads a wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.obs import decisions

__all__ = [
    "MAX_ATTEMPTS", "BASE_BACKOFF_S", "BACKOFF_MULTIPLIER", "BACKOFF_JITTER",
    "BREAKER_FAILURE_THRESHOLD", "BREAKER_RESET_TIMEOUT_S",
    "backoff_s", "Deadline", "CircuitBreaker",
]

#: Attempts per channel delivery or service call, the first try
#: included: one attempt plus at most three retries.
MAX_ATTEMPTS = 4
#: Modelled wait before the first retry; each later retry multiplies it
#: by :data:`BACKOFF_MULTIPLIER`.
BASE_BACKOFF_S = 0.05
BACKOFF_MULTIPLIER = 2.0
#: Seeded jitter stretches a backoff by up to this share of itself,
#: decorrelating retry storms from concurrent requests.
BACKOFF_JITTER = 0.5
#: Consecutive failures that open a link's circuit breaker.
BREAKER_FAILURE_THRESHOLD = 4
#: Quiet period after which an open breaker lets one probe through.
BREAKER_RESET_TIMEOUT_S = 30.0


def backoff_s(attempt: int, rng: random.Random | None = None) -> float:
    """Modelled delay before retry *attempt* (1 = first retry):
    ``BASE_BACKOFF_S * BACKOFF_MULTIPLIER**(attempt-1)``, stretched by up
    to :data:`BACKOFF_JITTER` of itself with one draw from *rng* (none
    without an *rng*)."""
    if attempt < 1:
        return 0.0
    base = BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1)
    if rng is None:
        return base
    return base * (1.0 + BACKOFF_JITTER * rng.random())


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

    def __init__(self, link: str) -> None:
        self.link = link
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
            if now - self.opened_at >= BREAKER_RESET_TIMEOUT_S:
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
            or self.failures >= BREAKER_FAILURE_THRESHOLD
        ):
            self.opened_at = now
            self._transition(self.OPEN, now)
