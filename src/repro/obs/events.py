"""The decision record, its vocabulary, and the bounded event log.

Every admit, deny, claim, cancel, release, retry, fault and alert in the
fabric is one immutable :class:`DecisionRecord` of a :class:`RecordKind`,
correlated back to the originating request through the correlation ID
minted when the user agent signed ``RAR_U``.
:func:`repro.obs.decisions.record` builds each record once and hands the
same object to every store that is on: the :class:`EventLog` here
(bounded, every kind) and the
:class:`~repro.obs.audit.ledger.DecisionLedger` (complete, the decision
kinds in :data:`~repro.obs.audit.ledger.LEDGER_KINDS`).

The correlation ID travels implicitly: the signalling engine scopes it
with :func:`correlation_scope`, and deeper layers (the broker's audit
hook, the trust verifier) pick it up via :func:`current_correlation_id`
without threading an argument through every call signature.  The id is
held by the current :mod:`repro.obs.context`; leaving a nested scope
restores the outer request's id.

Disabled by default; free when off (the usual ``None`` check).
"""

from __future__ import annotations

import contextlib
import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, MutableSequence

from repro.errors import ObservabilityError
from repro.obs import context

__all__ = [
    "RecordKind",
    "ReasonCode",
    "CheckRecord",
    "DecisionRecord",
    "RecordStore",
    "EventLog",
    "get_event_log",
    "use_event_log",
    "reason_code_for",
    "correlation_scope",
    "current_correlation_id",
]


class RecordKind(str, enum.Enum):
    """The typed vocabulary of decisions and lifecycle events."""

    #: A broker admitted the request into its capacity schedule.
    ADMIT = "admit"
    #: A broker (or the signalling engine on its behalf) denied it; the
    #: reason code says why, ``trust_failure`` for an unverifiable message.
    DENY = "deny"
    #: A granted reservation was claimed (service started).
    CLAIM = "claim"
    #: A reservation was cancelled (user action or unwind release).
    CANCEL = "cancel"
    #: A granted partial-path reservation torn down after a downstream denial.
    RELEASE = "release"
    #: The fault injector delivered a fault.
    FAULT = "fault"
    #: A signalling operation failed transiently and will be retried.
    RETRY = "retry"
    #: A per-link circuit breaker changed state.
    BREAKER = "breaker"
    #: A soft-state lease lapsed and the broker reclaimed capacity.
    EXPIRE = "expire"
    #: An explicit release during unwind failed (soft state will reclaim).
    UNWIND_FAILED = "unwind_failed"
    #: Graceful degradation engaged (e.g. tunnel -> per-flow signalling).
    FALLBACK = "fallback"
    #: An alert-engine lifecycle transition (pending/firing/resolved);
    #: the correlation id is the incident id minted at first firing.
    ALERT = "alert"
    #: A certificate/credential was revoked at its authority.
    REVOKE = "revoke"
    #: The end-to-end verdict the source domain returned to the user.
    OUTCOME = "outcome"


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
class CheckRecord:
    """One certificate / delegation / assertion check inside a decision.

    ``source`` is the provenance of the verdict: ``"fresh"`` for a
    cryptographic verification, ``"authority"`` for a revocation stated
    by its issuer, or ``""`` for non-crypto notes such as retries.
    """

    kind: str
    subject: str = ""
    fingerprint: str = ""
    verdict: str = "ok"
    source: str = "fresh"
    detail: str = ""

    def to_dict(self) -> dict[str, str]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "fingerprint": self.fingerprint,
            "verdict": self.verdict,
            "source": self.source,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CheckRecord":
        return cls(
            kind=str(data.get("kind", "")),
            subject=str(data.get("subject", "")),
            fingerprint=str(data.get("fingerprint", "")),
            verdict=str(data.get("verdict", "")),
            source=str(data.get("source", "")),
            detail=str(data.get("detail", "")),
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One decision, as every store keeps it: the event log and the
    ledger hold the same object."""

    kind: RecordKind
    at_time: float = 0.0
    #: The record's position in the ledger, or -1 when no ledger keeps
    #: it.  Revocation ordering and unwind balancing reason about
    #: ``seq``, not simulated time.
    seq: int = -1
    domain: str = ""
    handle: str = ""
    user: str = ""
    correlation_id: str = ""
    granted: bool = False
    reason: str = ""
    #: Stable machine-readable cause (a :class:`ReasonCode` value), or "".
    reason_code: str = ""
    rate_mbps: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    upstream: str | None = None
    downstream: str | None = None
    #: Policy-rule id that produced the verdict (e.g. ``policy/1.then.0``).
    matched_rule: str = ""
    #: Every rule node visited on the way, in evaluation order.
    rules_fired: tuple[str, ...] = ()
    #: Certificates / delegations / assertions checked for this decision.
    checks: tuple[CheckRecord, ...] = ()
    #: Transient-failure retries absorbed on the way to this decision.
    retries: int = 0
    #: Circuit-breaker state of the inbound link ("closed", "open", ...).
    breaker_state: str = ""
    #: Seconds left on the end-to-end deadline, or None when unbounded.
    deadline_remaining_s: float | None = None
    attributes: tuple[tuple[str, str], ...] = ()

    def attribute(self, name: str, default: str = "") -> str:
        for key, value in self.attributes:
            if key == name:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "at_time": self.at_time,
            "domain": self.domain,
            "handle": self.handle,
            "user": self.user,
            "correlation_id": self.correlation_id,
            "granted": self.granted,
            "reason": self.reason,
            "reason_code": self.reason_code,
            "rate_mbps": self.rate_mbps,
            "window": list(self.window),
            "upstream": self.upstream,
            "downstream": self.downstream,
            "matched_rule": self.matched_rule,
            "rules_fired": list(self.rules_fired),
            "checks": [c.to_dict() for c in self.checks],
            "retries": self.retries,
            "breaker_state": self.breaker_state,
            "deadline_remaining_s": self.deadline_remaining_s,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionRecord":
        """Inverse of :meth:`to_dict`.  A field absent from *data* takes
        its default; one that is missing but required, or cannot be
        read, raises :class:`~repro.errors.ObservabilityError` naming it."""
        fields: dict[str, Any] = {}
        for name, read in _FIELD_READERS.items():
            if name not in data:
                if name in ("seq", "kind"):
                    raise ObservabilityError(f"missing field {name!r}")
                continue
            try:
                fields[name] = read(data[name])
            except (TypeError, ValueError, AttributeError, IndexError) as exc:
                raise ObservabilityError(
                    f"field {name!r}: {type(exc).__name__}: {exc}"
                ) from exc
        return cls(**fields)


def _read_window(value: Any) -> tuple[float, float]:
    window = value or (0.0, 0.0)
    return float(window[0]), float(window[1])


#: How :meth:`DecisionRecord.from_dict` reads each field of a
#: :meth:`DecisionRecord.to_dict` document.
_FIELD_READERS: dict[str, Any] = {
    "seq": int,
    "kind": RecordKind,
    "at_time": float,
    "domain": str,
    "handle": str,
    "user": str,
    "correlation_id": str,
    "granted": bool,
    "reason": str,
    "reason_code": str,
    "rate_mbps": float,
    "window": _read_window,
    "upstream": lambda value: value,
    "downstream": lambda value: value,
    "matched_rule": str,
    "rules_fired": lambda value: tuple(value or ()),
    "checks": lambda value: tuple(
        CheckRecord.from_dict(c) for c in value or ()
    ),
    "retries": int,
    "breaker_state": str,
    "deadline_remaining_s": lambda value: (
        None if value is None else float(value)
    ),
    "attributes": lambda value: tuple(
        sorted((str(k), str(v)) for k, v in (value or {}).items())
    ),
}


class RecordStore:
    """What the event log and the ledger share: records in arrival
    order, filterable.  They differ only in how long they keep records
    and which kinds they keep."""

    _records: MutableSequence[DecisionRecord]

    def records(
        self,
        kind: RecordKind | None = None,
        *,
        domain: str | None = None,
        correlation_id: str | None = None,
        handle: str | None = None,
        user: str | None = None,
    ) -> tuple[DecisionRecord, ...]:
        return tuple(
            r for r in tuple(self._records)
            if (kind is None or r.kind is kind)
            and (domain is None or r.domain == domain)
            and (correlation_id is None or r.correlation_id == correlation_id)
            and (handle is None or r.handle == handle)
            and (user is None or r.user == user)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(tuple(self._records))


class EventLog(RecordStore):
    """Bounded store of every kind of :class:`DecisionRecord`.

    *max_events* bounds memory on long scenario runs; the oldest records
    are evicted first (operators wanting full retention can raise it, or
    read the ledger, which keeps the decision kinds complete).
    """

    def __init__(self, max_events: int = 100_000):
        self._records = deque(maxlen=max_events)
        self.emitted = 0  # total ever emitted, survives eviction

    def emit(self, record: DecisionRecord) -> DecisionRecord:
        self._records.append(record)
        self.emitted += 1
        return record


# ---------------------------------------------------------------------------
# Correlation-ID propagation
# ---------------------------------------------------------------------------


def current_correlation_id() -> str | None:
    """The correlation ID of the request currently being processed (set
    by the signalling engine), or ``None`` outside any request scope."""
    return context.current().correlation_id


@contextlib.contextmanager
def correlation_scope(correlation_id: str) -> Iterator[None]:
    """Tag every event emitted inside the block with *correlation_id*."""
    scope = context.current()
    outer, scope.correlation_id = scope.correlation_id, correlation_id
    try:
        yield
    finally:
        scope.correlation_id = outer


def get_event_log() -> EventLog | None:
    """The current context's event log, or ``None`` when off."""
    return context.current().event_log


def use_event_log(
    log: EventLog | None = None,
) -> contextlib.AbstractContextManager[EventLog]:
    """Scoped event-log installation (mirror of ``metrics.use_registry``)."""
    return context.use("event_log", log if log is not None else EventLog())
