"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can install a single ``except ReproError`` guard around
protocol operations.  Subsystems raise the most specific subclass that
applies; the hierarchy mirrors the package layout (crypto, policy,
admission, signalling, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CryptoError",
    "SignatureError",
    "CertificateError",
    "CertificateExpiredError",
    "CertificateRevokedError",
    "UntrustedIssuerError",
    "DelegationError",
    "EncodingError",
    "PolicyError",
    "PolicySyntaxError",
    "PolicyEvaluationError",
    "AdmissionError",
    "CapacityExceededError",
    "UnknownReservationError",
    "ReservationStateError",
    "SLAError",
    "SLAViolationError",
    "SignallingError",
    "ChannelError",
    "HandshakeError",
    "MessageDroppedError",
    "ChannelTimeoutError",
    "TamperedMessageError",
    "MalformedMessageError",
    "DefenseError",
    "RateLimitedError",
    "QuotaExceededError",
    "ReplayRejectedError",
    "OverloadShedError",
    "BrokerUnavailableError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "PolicyUnavailableError",
    "RepositoryUnavailableError",
    "FaultPlanError",
    "RoutingError",
    "NoRouteError",
    "TrustError",
    "ChainTooDeepError",
    "IntroductionError",
    "TunnelError",
    "GaraError",
    "CoReservationError",
    "SimulationError",
    "AccountingError",
    "ObservabilityError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# crypto
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class CertificateError(CryptoError):
    """A certificate is malformed or fails validation."""


class CertificateExpiredError(CertificateError):
    """A certificate is outside its validity interval."""


class CertificateRevokedError(CertificateError):
    """A certificate appears on the issuer's revocation list."""


class UntrustedIssuerError(CertificateError):
    """No chain to a trust anchor could be built for a certificate."""


class RepositoryUnavailableError(CertificateError):
    """The certificate repository timed out or is unreachable (transient)."""


class DelegationError(CryptoError):
    """A capability delegation step is invalid (wrong key, widened rights, ...)."""


class EncodingError(CryptoError):
    """Canonical encoding failed (unsupported type, non-canonical input)."""


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

class PolicyError(ReproError):
    """Base class for policy subsystem failures."""


class PolicySyntaxError(PolicyError):
    """The policy-file language parser rejected its input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PolicyEvaluationError(PolicyError):
    """A rule raised during evaluation (missing attribute, bad predicate, ...)."""

    #: The evaluation trace, ending at the failing ``If`` (set by the engine).
    rules_fired: tuple[str, ...] = ()


class PolicyUnavailableError(PolicyError):
    """The policy server timed out or is unreachable (transient)."""


# ---------------------------------------------------------------------------
# admission / reservations / SLA
# ---------------------------------------------------------------------------

class AdmissionError(ReproError):
    """Base class for admission-control failures."""


class CapacityExceededError(AdmissionError):
    """Admitting the request would exceed capacity in some time slot."""


class UnknownReservationError(AdmissionError):
    """No reservation with the given handle exists."""


class ReservationStateError(AdmissionError):
    """The operation is invalid for the reservation's current state."""


class SLAError(ReproError):
    """Base class for service-level-agreement failures."""


class SLAViolationError(SLAError):
    """A request does not conform to the SLA with the peered domain."""


# ---------------------------------------------------------------------------
# signalling
# ---------------------------------------------------------------------------

class SignallingError(ReproError):
    """Base class for inter-BB signalling failures."""


class ChannelError(SignallingError):
    """A secure channel could not be used (not open, unknown peer, ...)."""


class HandshakeError(ChannelError):
    """Mutual authentication failed while opening a channel."""


class MessageDroppedError(ChannelError):
    """A transmitted message was lost on the wire (never delivered)."""


class ChannelTimeoutError(ChannelError):
    """A channel crossing exceeded the sender's per-hop timeout."""


class TamperedMessageError(SignallingError):
    """A received message failed integrity verification."""


class MalformedMessageError(SignallingError):
    """A received message could not be decoded into a signed envelope
    (truncated payload, unknown field tag, wrong object kind).

    Unlike :class:`TamperedMessageError` — a well-formed envelope whose
    signature does not verify — this is a *structural* failure detected
    before any cryptographic work, so it is denied upstream rather than
    retransmitted."""


# ---------------------------------------------------------------------------
# admission-plane defenses (rate limits, quotas, replay, shedding)
# ---------------------------------------------------------------------------

class DefenseError(SignallingError):
    """Base class for admission-plane defense rejections.

    Raised *before* the expensive parts of per-hop processing (signature
    verification, policy evaluation, capacity search), so a flood of
    abusive signalling costs the victim broker almost nothing."""


class RateLimitedError(DefenseError):
    """The per-peer signalling token bucket is empty (rate limit)."""


class QuotaExceededError(DefenseError):
    """Admitting would exceed the per-user or per-ingress reservation quota."""


class ReplayRejectedError(DefenseError):
    """An envelope with this digest was already processed inside the
    replay window (rejected before signature verification)."""


class OverloadShedError(DefenseError):
    """The broker shed a new admission to protect refresh/teardown work
    while its pending queue is past the overload watermark."""


class BrokerUnavailableError(SignallingError):
    """A bandwidth broker crashed or is not answering."""


class DeadlineExceededError(SignallingError):
    """The request's end-to-end signalling deadline passed."""


class CircuitOpenError(SignallingError):
    """The circuit breaker for a peer link is open (failing fast)."""


class RetryExhaustedError(SignallingError):
    """A bounded retry loop used up its attempt budget."""


class TrustError(SignallingError):
    """Base class for transitive-trust failures."""


class ChainTooDeepError(TrustError):
    """The introduction chain exceeds the verifier's depth policy."""


class IntroductionError(TrustError):
    """A key introduction could not be validated."""


class TunnelError(SignallingError):
    """Tunnel establishment or intra-tunnel allocation failed."""


# ---------------------------------------------------------------------------
# network / routing / simulation
# ---------------------------------------------------------------------------

class RoutingError(ReproError):
    """Base class for routing failures."""


class NoRouteError(RoutingError):
    """No path exists between the requested endpoints."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


# ---------------------------------------------------------------------------
# GARA / co-reservation / accounting
# ---------------------------------------------------------------------------

class GaraError(ReproError):
    """Base class for GARA-style uniform reservation API failures."""


class CoReservationError(GaraError):
    """An all-or-nothing co-reservation could not be completed."""


class AccountingError(ReproError):
    """Billing/mediation failures."""


# ---------------------------------------------------------------------------
# observability / static analysis
# ---------------------------------------------------------------------------

class ObservabilityError(ReproError):
    """The metrics/tracing substrate was used incorrectly."""


class AnalysisError(ReproError):
    """The static-analysis tooling was misconfigured or fed bad input."""


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------

class FaultPlanError(ReproError):
    """A fault plan is malformed (unknown target kind, bad window, ...)."""
