"""Structured event log: typed records for reservation-lifecycle events.

Where metrics aggregate and spans time, events *narrate*: every admit,
deny, claim, cancel, release, and trust failure in the fabric appends one
typed record, correlated back to the originating request through the
correlation ID minted when the user agent signed ``RAR_U``.

The correlation ID travels implicitly: the signalling engine scopes it
with :func:`correlation_scope`, and deeper layers (the broker's audit
hook, the trust verifier) pick it up via :func:`current_correlation_id`
without threading an argument through every call signature.  The scope
uses :mod:`contextvars`, so leaving a nested scope restores the outer
request's id.

Disabled by default; free when off (the usual ``None`` check).
"""

from __future__ import annotations

import contextlib
import enum
from collections import deque
from dataclasses import dataclass, field
from contextvars import ContextVar
from typing import Iterator

from repro.obs._holder import Holder

__all__ = [
    "EventKind",
    "ReasonCode",
    "Event",
    "EventLog",
    "enable",
    "disable",
    "get_event_log",
    "use_event_log",
    "reason_code_for",
    "correlation_scope",
    "current_correlation_id",
]


class EventKind(str, enum.Enum):
    """The typed vocabulary of fabric events."""

    ADMIT = "admit"
    DENY = "deny"
    CLAIM = "claim"
    CANCEL = "cancel"
    #: A granted partial-path reservation torn down after a downstream denial.
    RELEASE = "release"
    TRUST_FAILURE = "trust_failure"
    #: The fault injector delivered a fault.
    FAULT = "fault"
    #: A signalling operation failed transiently and will be retried.
    RETRY = "retry"
    #: A per-link circuit breaker changed state.
    BREAKER = "breaker"
    #: A soft-state lease lapsed and the reservation was reclaimed.
    EXPIRE = "expire"
    #: An explicit release during unwind failed (soft state will reclaim).
    UNWIND_FAILED = "unwind_failed"
    #: Graceful degradation engaged (e.g. tunnel -> per-flow signalling).
    FALLBACK = "fallback"
    #: An alert-engine lifecycle transition (pending/firing/resolved);
    #: the correlation id is the incident id minted at first firing.
    ALERT = "alert"


class ReasonCode(str, enum.Enum):
    """Machine-readable *why* for lifecycle events and audit records.

    The free-form ``reason`` string stays human-facing; the code is the
    stable vocabulary the audit reconciler and alerting match on, so the
    event log and the decision ledger agree on why state was torn down.
    """

    #: Local policy returned DENY.
    POLICY_DENIED = "policy_denied"
    #: The request violates the SLA with the upstream domain.
    SLA_VIOLATION = "sla_violation"
    #: Admission control found no capacity in some time slot.
    CAPACITY_EXCEEDED = "capacity_exceeded"
    #: Signature / certificate / delegation verification failed.
    TRUST_FAILURE = "trust_failure"
    #: A bandwidth broker on the path crashed or is not answering.
    BROKER_UNREACHABLE = "broker_unreachable"
    #: The inter-broker channel dropped/timed out beyond the retry budget.
    LINK_UNREACHABLE = "link_unreachable"
    #: The policy server (or certificate repository) is unreachable.
    POLICY_UNAVAILABLE = "policy_unavailable"
    #: The end-to-end signalling deadline passed.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: The accumulated cost offers exceeded the user's ceiling.
    COST_CEILING = "cost_ceiling"
    #: A soft-state lease lapsed without refresh.
    SOFT_STATE_EXPIRED = "soft_state_expired"
    #: Torn down to balance a partial-path admission after a denial.
    UNWOUND = "unwound"
    #: Explicit release during unwind failed; soft state will reclaim.
    UNWIND_RELEASE_FAILED = "unwind_release_failed"
    #: Tunnel-level allocation failed; degraded to per-flow signalling.
    TUNNEL_DIRECT_FAILED = "tunnel_direct_failed"
    #: The caller cancelled or modified the reservation.
    USER_REQUESTED = "user_requested"
    #: The per-peer signalling token bucket was empty.
    RATE_LIMITED = "rate_limited"
    #: The per-user / per-ingress reservation quota was exhausted.
    QUOTA_EXCEEDED = "quota_exceeded"
    #: The envelope digest was already seen inside the replay window.
    REPLAY_REJECTED = "replay_rejected"
    #: A new admission was shed while the pending queue was past the
    #: overload watermark (refresh/teardown still serviced).
    SHED_OVERLOAD = "shed_overload"


def reason_code_for(exc: BaseException) -> ReasonCode:
    """Classify an exception into the :class:`ReasonCode` vocabulary.

    Local import: :mod:`repro.errors` is a leaf module, but deferring
    keeps this module importable before the package is fully wired.
    """
    from repro import errors

    # Defense rejections first: they subclass SignallingError, so they
    # must be recognised before the broader transport buckets below.
    if isinstance(exc, errors.RateLimitedError):
        return ReasonCode.RATE_LIMITED
    if isinstance(exc, errors.QuotaExceededError):
        return ReasonCode.QUOTA_EXCEEDED
    if isinstance(exc, errors.ReplayRejectedError):
        return ReasonCode.REPLAY_REJECTED
    if isinstance(exc, errors.OverloadShedError):
        return ReasonCode.SHED_OVERLOAD
    if isinstance(exc, errors.MalformedMessageError):
        return ReasonCode.TRUST_FAILURE
    if isinstance(exc, errors.DeadlineExceededError):
        return ReasonCode.DEADLINE_EXCEEDED
    if isinstance(exc, errors.BrokerUnavailableError):
        return ReasonCode.BROKER_UNREACHABLE
    if isinstance(exc, (errors.CircuitOpenError, errors.RetryExhaustedError,
                        errors.ChannelError)):
        return ReasonCode.LINK_UNREACHABLE
    if isinstance(exc, (errors.PolicyUnavailableError,
                        errors.RepositoryUnavailableError)):
        return ReasonCode.POLICY_UNAVAILABLE
    if isinstance(exc, (errors.CryptoError, errors.TrustError,
                        errors.TamperedMessageError)):
        return ReasonCode.TRUST_FAILURE
    if isinstance(exc, errors.SLAError):
        return ReasonCode.SLA_VIOLATION
    if isinstance(exc, errors.AdmissionError):
        return ReasonCode.CAPACITY_EXCEEDED
    if isinstance(exc, errors.PolicyError):
        return ReasonCode.POLICY_DENIED
    return ReasonCode.LINK_UNREACHABLE


@dataclass(frozen=True)
class Event:
    """One structured record."""

    kind: EventKind
    at_time: float
    domain: str = ""
    correlation_id: str = ""
    user: str = ""
    handle: str = ""
    reason: str = ""
    #: Stable machine-readable cause (a :class:`ReasonCode` value), or "".
    reason_code: str = ""
    attributes: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "at_time": self.at_time,
            "domain": self.domain,
            "correlation_id": self.correlation_id,
            "user": self.user,
            "handle": self.handle,
            "reason": self.reason,
            "reason_code": self.reason_code,
            "attributes": dict(self.attributes),
        }


class EventLog:
    """Bounded, append-only event store.

    *max_events* bounds memory on long scenario runs; the oldest records
    are evicted first (operators wanting full retention can raise it).
    """

    def __init__(self, max_events: int = 100_000):
        self._events: deque[Event] = deque(maxlen=max_events)
        self.emitted = 0  # total ever emitted, survives eviction

    def emit(
        self,
        kind: EventKind,
        /,  # positional-only: an attribute may itself be named ``kind``
        *,
        at_time: float = 0.0,
        domain: str = "",
        user: str = "",
        handle: str = "",
        reason: str = "",
        reason_code: str | ReasonCode = "",
        correlation_id: str | None = None,
        **attributes: object,
    ) -> Event:
        if correlation_id is None:
            correlation_id = current_correlation_id() or ""
        event = Event(
            kind=kind,
            at_time=at_time,
            domain=domain,
            correlation_id=correlation_id,
            user=user,
            handle=handle,
            reason=reason,
            reason_code=(reason_code.value
                         if isinstance(reason_code, ReasonCode)
                         else reason_code),
            attributes=tuple(sorted((k, str(v)) for k, v in attributes.items())),
        )
        self._events.append(event)
        self.emitted += 1
        return event

    def events(
        self,
        kind: EventKind | None = None,
        *,
        domain: str | None = None,
        correlation_id: str | None = None,
    ) -> tuple[Event, ...]:
        snapshot = tuple(self._events)
        return tuple(
            e for e in snapshot
            if (kind is None or e.kind is kind)
            and (domain is None or e.domain == domain)
            and (correlation_id is None or e.correlation_id == correlation_id)
        )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(tuple(self._events))

    def reset(self) -> None:
        self._events.clear()
        self.emitted = 0


# ---------------------------------------------------------------------------
# Correlation-ID propagation
# ---------------------------------------------------------------------------

_correlation: ContextVar[str | None] = ContextVar("repro_correlation_id",
                                                  default=None)


def current_correlation_id() -> str | None:
    """The correlation ID of the request currently being processed (set
    by the signalling engine), or ``None`` outside any request scope."""
    return _correlation.get()


@contextlib.contextmanager
def correlation_scope(correlation_id: str):
    """Tag every event emitted inside the block with *correlation_id*."""
    token = _correlation.set(correlation_id)
    try:
        yield
    finally:
        _correlation.reset(token)


# ---------------------------------------------------------------------------
# Process-global event log (disabled by default)
# ---------------------------------------------------------------------------

_holder: Holder[EventLog] = Holder()


def enable(log: EventLog | None = None) -> EventLog:
    """Install *log* (or a fresh one) as the process-global event log."""
    log = log if log is not None else EventLog()
    _holder.swap(log)
    return log


def disable() -> None:
    _holder.swap(None)


def get_event_log() -> EventLog | None:
    """The active global event log, or ``None`` when off."""
    return _holder.active


def use_event_log(
    log: EventLog | None = None,
) -> contextlib.AbstractContextManager[EventLog]:
    """Scoped event-log installation (mirror of ``metrics.use_registry``)."""
    return _holder.use(log if log is not None else EventLog())
