"""Approach 2: hop-by-hop inter-BB signalling (the paper's contribution).

"Alice only contacts BB_A, which then propagates the reservation request
to BB_B only if the reservation was accepted by BB_A.  Similarly, BB_B
contacts BB_C.  With this solution, each BB only needs to know about its
neighboring BBs, and all BBs are always contacted." (§3)

The engine drives each broker through the source / intermediate /
destination behaviours of §§6.1–6.3:

1. the user's agent signs ``RAR_U`` (delegating its capabilities to the
   source BB) and submits it over the mutually authenticated user↔BB
   channel;
2. every BB verifies the nested envelope with transitive trust
   (:func:`repro.core.trust.verify_rar`), runs its policy server and
   admission control, and — if it grants and is not the destination —
   re-delegates the capability, introduces the upstream certificate, and
   forwards ``RAR_{N+1}`` downstream;
3. a denial anywhere propagates back upstream with its reason; already
   granted reservations along the partial path are released;
4. the destination runs the full §6.5 capability-chain verification
   (including its own proof of possession) and, on success, the approval
   propagates back with each BB adding its signed policy information.

Failure recovery (the part the paper leaves implicit): every channel
crossing runs under a per-hop timeout with bounded retries, exponential
backoff + seeded jitter, and a per-peer-link circuit breaker
(:mod:`repro.core.recovery`); an optional end-to-end deadline travels in
the RAR itself (``F_DEADLINE``) so retries at an early hop shrink every
later hop's budget; a hop whose broker, policy server, or repository
stays down after retries turns into an upstream-signed denial; and
partial-path admissions are *always* released — explicitly where
reachable, tolerantly skipped (``UNWIND_FAILED``) where not, with the
brokers' soft-state expiry as the backstop.

Latency accounting (benchmark C1): every channel crossing contributes its
one-way latency, every BB decision contributes ``processing_delay_s``,
and every timeout/backoff contributes its modelled wait; the engine sums
these along the actual message trajectory.
"""

from __future__ import annotations

import logging
import threading
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from repro.bb.broker import BandwidthBroker
from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.channel import ChannelRegistry, SecureChannel
from repro.core.codec import WireView
from repro.crypto.dn import DistinguishedName
from repro.core.envelope import SignedEnvelope
from repro.core.messages import (
    F_DEADLINE,
    F_DOMAIN,
    F_REASON,
    F_TRACEPARENT,
    make_approval,
    make_bb_rar,
    make_denial,
    make_user_rar,
    unwrap_rar_layers,
)
from repro.core.recovery import (
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.core.trust import (
    VerifiedRAR,
    verify_rar,
    verify_rar_with_repository,
)
from repro.crypto.capability import (
    ProxyCredential,
    delegate,
    prove_possession,
    split_capability_chains,
    verify_delegation_chain,
)
from repro.crypto.repository import CertificateRepository
from repro.crypto.x509 import Certificate
from repro.crypto import batch as batch_verification
from repro.crypto.cache import digest as _envelope_digest
from repro.errors import (
    BrokerUnavailableError,
    CertificateError,
    ChannelTimeoutError,
    CircuitOpenError,
    DeadlineExceededError,
    DefenseError,
    DelegationError,
    EncodingError,
    MalformedMessageError,
    MessageDroppedError,
    ObservabilityError,
    PolicyUnavailableError,
    RepositoryUnavailableError,
    ReproError,
    RetryExhaustedError,
    SignallingError,
    TrustError,
    TamperedMessageError,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.audit import ledger as obs_audit
from repro.obs.events import EventKind, ReasonCode, reason_code_for
from repro.obs.propagation import (
    TraceContext,
    format_traceparent,
    parse_traceparent,
)
from repro.policy.attributes import SignedAssertion, make_assertion

__all__ = ["SignallingOutcome", "IngressReport", "HopByHopProtocol"]

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Transient faults a hop may retry through (a crashed-and-restarting
#: broker, a policy server or repository that times out).
_TRANSIENT_ERRORS = (
    BrokerUnavailableError,
    PolicyUnavailableError,
    RepositoryUnavailableError,
)

#: Delivery failures that end a leg after the retry budget is spent.
_DELIVERY_FAILURES = (
    RetryExhaustedError,
    CircuitOpenError,
    DeadlineExceededError,
)

#: Relative processing cost (in multiples of one full per-hop
#: verification) that each stage of ingress handling charges the
#: receiving broker.  The whole point of the pre-verification defense
#: gate is the two-orders-of-magnitude gap between the first row and the
#: last: a rejected abuse signal costs the victim a dict lookup, an
#: accepted one costs the full nested-envelope signature walk.
WORK_GATE = 0.02
WORK_DECODE = 0.15
WORK_VERIFY = 1.0


def _carried_parent_span_id(rar: SignedEnvelope) -> int | None:
    """The parent span id named by the received envelope's trace context
    (:data:`~repro.core.messages.F_TRACEPARENT`), or ``None`` when the
    field is absent or malformed — the hop then parents under the local
    in-process chain instead of guessing."""
    carried = rar.get(F_TRACEPARENT)
    if not isinstance(carried, str):
        return None
    try:
        return parse_traceparent(carried).span_id
    except ObservabilityError:
        return None


@dataclass
class SignallingOutcome:
    """Result of one end-to-end signalling attempt."""

    granted: bool
    #: Per-domain reservation handles (complete on success; the domains
    #: granted before a denial are released and still listed for tracing).
    handles: dict[str, str] = field(default_factory=dict)
    denial_domain: str | None = None
    denial_reason: str = ""
    #: End-to-end signalling latency (request leg + reply leg, including
    #: modelled timeouts and retry backoff).
    latency_s: float = 0.0
    #: Messages exchanged during this attempt.
    messages: int = 0
    bytes: int = 0
    #: Transient-failure retries performed while signalling.
    retries: int = 0
    #: The RAR as received by the destination (None when denied earlier).
    final_rar: SignedEnvelope | None = None
    #: Transitive-trust verification result at the destination.
    verified: VerifiedRAR | None = None
    #: §6.5 delegation-chain result at the destination (None if no
    #: capabilities travelled); first of ``delegations`` when several
    #: community chains travelled.
    delegation: object | None = None
    #: All verified delegation chains (one per community credential).
    delegations: tuple = ()
    #: The approval envelope as received back by the user.
    approval: SignedEnvelope | None = None
    #: Domain sequence the request traversed.
    path: tuple[str, ...] = ()
    #: Accumulated transit cost of the granted path (SLA tariffs x usage);
    #: always within the user's ``cost_ceiling`` on success.
    cost: float = 0.0
    #: Certificate-repository lookups performed (repository mode only).
    repository_lookups: int = 0
    #: Correlation ID minted when the user agent signed ``RAR_U``; ties
    #: this outcome to its spans and structured events.
    correlation_id: str = ""


@dataclass(frozen=True)
class IngressReport:
    """What one inbound signalling message cost the receiving broker.

    ``work_units`` is the processing the broker actually spent, in
    multiples of one full verification (:data:`WORK_VERIFY`); the
    survivability harness integrates it into the victim's modelled work
    queue.  ``verified`` is True only when signature verification ran —
    the replay-guard acceptance test asserts it stays False for every
    replayed envelope.
    """

    accepted: bool
    work_units: float
    verified: bool = False
    reason: str = ""
    reason_code: str = ""
    #: Trace context of the outermost decoded layer (scalar string only),
    #: for stitching ingress decisions into distributed traces.  ``None``
    #: when the message never decoded or carried none.
    traceparent: str | None = None
    #: End-to-end signalling deadline claimed by the message (scalar
    #: numeric only); ``None`` when absent or undecoded.
    deadline: float | None = None


class HopByHopProtocol:
    """Drives hop-by-hop signalling across a set of peered brokers."""

    def __init__(
        self,
        brokers: Mapping[str, BandwidthBroker],
        channels: ChannelRegistry,
        domain_path: Callable[[str, str], list[str]],
        *,
        processing_delay_s: float = 0.001,
        clock: Callable[[], float] = lambda: 0.0,
        repository: CertificateRepository | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        hop_timeout_s: float = 0.25,
        rng: random.Random | None = None,
    ) -> None:
        self.brokers = dict(brokers)
        self.channels = channels
        self.domain_path = domain_path
        self.processing_delay_s = processing_delay_s
        self.clock = clock
        #: Optional trusted certificate repository (§6.4 alternative 2).
        #: When set, BBs do NOT carry introduced certificates in the RAR;
        #: every verifier resolves inner-signer keys by DN instead, paying
        #: one repository lookup per unknown signer.
        self.repository = repository
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker_policy = (
            breaker_policy if breaker_policy is not None else BreakerPolicy()
        )
        #: How long a sender waits for a channel delivery before declaring
        #: the message lost and retrying (modelled seconds).
        self.hop_timeout_s = hop_timeout_s
        # crc32 seed, not hash(): deterministic across processes (REP108).
        self.rng = (
            rng if rng is not None
            else random.Random(zlib.crc32(b"hopbyhop-recovery"))
        )
        #: One circuit breaker per channel link, persisting across
        #: requests so a proven-dead link fails fast.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        #: Signature-verification walks performed by :meth:`process_ingress`
        #: (the replay-guard acceptance test asserts replayed envelopes
        #: never move this counter).
        self.ingress_verifications = 0

    # -- helpers -----------------------------------------------------------------

    def _broker(self, domain: str) -> BandwidthBroker:
        try:
            return self.brokers[domain]
        except KeyError:
            raise SignallingError(f"no bandwidth broker for domain {domain!r}") from None

    def _breaker_for(self, link: str) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(link)
            if breaker is None:
                breaker = CircuitBreaker(link, self.breaker_policy)
                self._breakers[link] = breaker
            return breaker

    def breaker_snapshot(self) -> dict[str, str]:
        """Current state of every per-link circuit breaker, keyed by
        the canonical ``a|b`` link label — the telemetry probe's view
        (the flight recorder samples it each frame)."""
        with self._breakers_lock:
            return {
                link: breaker.state
                for link, breaker in sorted(self._breakers.items())
            }

    def _note_retry(
        self, *, outcome: SignallingOutcome, what: str, target: str,
        attempt: int, at_time: float, reason: str,
    ) -> None:
        outcome.retries += 1
        obs_audit.note_retry(target=target, reason=reason)
        logger.info("retry %d of %s (%s): %s", attempt, what, target, reason)
        registry = obs_metrics.get_registry()
        if registry is not None:
            registry.counter(
                "signalling_retries_total",
                "Transient-failure retries during hop-by-hop signalling",
            ).inc(target=target)
        event_log = obs_events.get_event_log()
        if event_log is not None:
            event_log.emit(
                EventKind.RETRY, at_time=at_time, reason=reason,
                target=target, what=what, attempt=attempt,
            )

    @staticmethod
    def _decode_received(received: object, *, what: str) -> SignedEnvelope:
        """Structural validation of a delivered message.

        Wire bytes are decoded by :class:`~repro.core.codec.WireView` in
        one fused pass; anything that is not (or does not decode to) a
        :class:`SignedEnvelope` raises a typed
        :class:`MalformedMessageError`.  Decoder failures are
        :class:`~repro.core.codec.WireCodecError`; the protocol-object
        validators the decode re-runs raise other :class:`ReproError`
        branches (a crafted ``res_spec``: :class:`ReservationStateError`).
        A builtin exception escaping here is a missing typed raise in
        ``codec.py``, not a reason to widen the catch.
        """
        if isinstance(received, (bytes, bytearray, memoryview)):
            try:
                received = WireView.parse(received).materialize()
            except ReproError as exc:
                raise MalformedMessageError(
                    f"{what}: undecodable message: {exc}"
                ) from exc
        if not isinstance(received, SignedEnvelope):
            raise MalformedMessageError(
                f"{what}: expected a signed envelope, got "
                f"{type(received).__name__}"
            )
        return received

    def _deliver(
        self,
        channel: SecureChannel,
        sender: DistinguishedName,
        message: SignedEnvelope,
        *,
        outcome: SignallingOutcome,
        at_time: float,
        deadline: Deadline | None,
        what: str,
    ) -> SignedEnvelope:
        """One reliable-ish delivery: per-hop timeout, bounded retries
        with backoff + jitter, and the link's circuit breaker.

        Modelled latency for every attempt — successful crossing, timed
        out wait, and backoff alike — accrues to *outcome*; message and
        byte counters only count copies that actually arrived, matching
        the channel's own accounting.
        """
        breaker = self._breaker_for(channel.link)
        policy = self.retry_policy
        last_exc: ReproError | None = None
        for attempt in range(1, policy.max_attempts + 1):
            now = at_time + outcome.latency_s
            if deadline is not None:
                deadline.check(now, what=what)
            breaker.check(now)
            try:
                received, extra = channel.transmit_timed(sender, message)
            except MessageDroppedError as exc:
                last_exc = exc
            else:
                if extra > 0.0 and extra >= self.hop_timeout_s:
                    # Delivered, but after the sender's timeout fired; the
                    # receiver discards the stale copy as a duplicate.
                    last_exc = ChannelTimeoutError(
                        f"{what}: delivery on {channel.link} took "
                        f"{extra:.3f}s, over the {self.hop_timeout_s:.3f}s "
                        "hop timeout"
                    )
                else:
                    # Structural validation before anything touches the
                    # payload: a truncated or junk delivery becomes a
                    # typed MalformedMessageError, never a raw decode
                    # exception escaping the protocol.
                    received = self._decode_received(received, what=what)
                    outcome.latency_s += channel.latency_s + extra
                    outcome.messages += 1
                    outcome.bytes += received.wire_size()
                    breaker.record_success(at_time + outcome.latency_s)
                    return received
            # The sender waited out its timeout without an acknowledgement.
            outcome.latency_s += self.hop_timeout_s
            breaker.record_failure(at_time + outcome.latency_s)
            if attempt < policy.max_attempts:
                outcome.latency_s += policy.backoff_s(attempt, self.rng)
                self._note_retry(
                    outcome=outcome, what=what, target=channel.link,
                    attempt=attempt, at_time=at_time + outcome.latency_s,
                    reason=str(last_exc),
                )
        raise RetryExhaustedError(
            f"{what}: no delivery on link {channel.link} after "
            f"{policy.max_attempts} attempts: {last_exc}"
        ) from last_exc

    def _call_with_retries(
        self,
        op: Callable[[], _T],
        *,
        outcome: SignallingOutcome,
        at_time: float,
        deadline: Deadline | None,
        what: str,
        target: str,
    ) -> _T:
        """Run *op* with bounded retries over transient service outages
        (crashed broker, policy server / repository timeout)."""
        policy = self.retry_policy
        last_exc: ReproError | None = None
        for attempt in range(1, policy.max_attempts + 1):
            now = at_time + outcome.latency_s
            if deadline is not None:
                deadline.check(now, what=what)
            try:
                return op()
            except _TRANSIENT_ERRORS as exc:
                last_exc = exc
                if attempt < policy.max_attempts:
                    outcome.latency_s += policy.backoff_s(attempt, self.rng)
                    self._note_retry(
                        outcome=outcome, what=what, target=target,
                        attempt=attempt, at_time=at_time + outcome.latency_s,
                        reason=str(exc),
                    )
        raise RetryExhaustedError(
            f"{what} failed after {policy.max_attempts} attempts: {last_exc}"
        ) from last_exc

    def _release_granted(
        self,
        granted: list[tuple[BandwidthBroker, str]],
        *,
        at_time: float,
        reason: str,
    ) -> None:
        """Release partial-path admissions, tolerating broker failures.

        An unreachable broker cannot release explicitly; the failure is
        recorded (``UNWIND_FAILED``) and its soft-state lease — when the
        broker runs soft state — reclaims the capacity on expiry.
        Consumes *granted* so callers (and the enclosing ``finally``)
        never release twice.
        """
        registry = obs_metrics.get_registry()
        event_log = obs_events.get_event_log()
        while granted:
            bb, handle = granted.pop()
            try:
                bb.cancel(handle, reason=reason, reason_code=ReasonCode.UNWOUND)
            except ReproError as exc:
                logger.warning(
                    "%s: unwind of %s failed (%s); soft state must reclaim",
                    bb.domain, handle, exc,
                )
                if registry is not None:
                    registry.counter(
                        "unwind_failures_total",
                        "Partial-path releases that failed (left to "
                        "soft-state expiry)",
                    ).inc(domain=bb.domain)
                if event_log is not None:
                    event_log.emit(
                        EventKind.UNWIND_FAILED, at_time=at_time,
                        domain=bb.domain, handle=handle, reason=str(exc),
                        reason_code=ReasonCode.UNWIND_RELEASE_FAILED,
                    )
                obs_audit.record_decision(
                    obs_audit.RecordKind.UNWIND_FAILED,
                    at_time=at_time, domain=bb.domain, handle=handle,
                    reason=str(exc),
                    reason_code=ReasonCode.UNWIND_RELEASE_FAILED.value,
                )
                continue
            logger.info("%s: released %s (%s)", bb.domain, handle, reason)
            if registry is not None:
                registry.counter(
                    "releases_total",
                    "Partial-path reservations released after a "
                    "downstream denial",
                ).inc(domain=bb.domain)
            if event_log is not None:
                event_log.emit(
                    EventKind.RELEASE, at_time=at_time, domain=bb.domain,
                    handle=handle, reason=reason,
                    reason_code=ReasonCode.UNWOUND,
                )

    def _bb_credentials(
        self, bb: BandwidthBroker, chains: Sequence[Sequence[Certificate]]
    ) -> list[ProxyCredential]:
        """The broker's proxy credentials: one per delegation chain whose
        tip names this broker as subject (delegated by the upstream hop).
        A user with several community credentials yields several chains."""
        return [
            ProxyCredential(chain[-1], bb.keypair.private)
            for chain in chains
            if chain and chain[-1].subject == bb.dn
        ]

    def _verified_path_assertions(
        self, verified: VerifiedRAR, peer_certificate: Certificate,
        at_time: float,
    ) -> dict[str, object]:
        """Merge attributes from assertions whose issuer's signature checks
        out against a certificate we saw in the chain."""
        certs: dict = {}
        if verified.user_certificate is not None:
            certs[verified.user_certificate.subject] = verified.user_certificate
        for cert in verified.introduced:
            certs[cert.subject] = cert
        certs[peer_certificate.subject] = peer_certificate
        merged: dict[str, object] = {}
        for assertion in verified.assertions:
            cert = certs.get(assertion.issuer)
            if cert is None:
                continue
            if not assertion.verify(cert.public_key, at_time=at_time):
                continue
            for k, v in assertion.attributes:
                merged[k] = v
        return merged

    # -- the protocol ----------------------------------------------------------------

    def reserve(
        self,
        user: UserAgent,
        request: ReservationRequest,
        *,
        assertions: Sequence[SignedAssertion] = (),
        restrictions: tuple[str, ...] = (),
        deadline_s: float | None = None,
    ) -> SignallingOutcome:
        """Run the full hop-by-hop reservation for *request*.

        ``deadline_s`` bounds the whole signalling attempt in modelled
        seconds; the absolute deadline travels in the RAR so every hop
        bounds its retries by the remaining end-to-end budget.

        Observability: a per-request correlation ID is minted here (the
        moment the user agent signs ``RAR_U``), every event emitted while
        the request is in flight carries it, and — when tracing is
        enabled — a ``reserve`` root span plus one nested ``hop`` span
        per BB record the trajectory exactly as the signature envelopes
        nest it.
        """
        correlation_id = obs_spans.mint_correlation_id()
        # Worker threads are reused across requests: start the audit
        # pending-check buffer from a clean slate for this one.
        obs_audit.discard_pending()
        tracer = obs_spans.get_tracer()
        root = None
        if tracer is not None:
            root = tracer.begin(
                "reserve",
                trace_id=correlation_id,
                user=str(user.dn),
                source=request.source_domain,
                destination=request.destination_domain,
                rate_mbps=request.rate_mbps,
            )
        logger.info(
            "%s: reserve %s -> %s rate=%.1f Mb/s user=%s",
            correlation_id, request.source_domain,
            request.destination_domain, request.rate_mbps, user.dn,
        )
        registry = obs_metrics.get_registry()
        if registry is not None:
            registry.gauge(
                "signalling_inflight",
                "Reservations currently in hop-by-hop signalling",
            ).inc()
        try:
            with obs_events.correlation_scope(correlation_id):
                outcome = self._signal(
                    user, request, assertions=assertions,
                    restrictions=restrictions, tracer=tracer, root=root,
                    deadline_s=deadline_s,
                )
        finally:
            if registry is not None:
                registry.gauge("signalling_inflight").dec()
        outcome.correlation_id = correlation_id
        ledger = obs_audit.get_ledger()
        if ledger is not None:
            # The terminal record of the decision chain: what the source
            # domain told the user.  Drains any checks still pending
            # (e.g. the destination's §6.5 delegation verification).
            ledger.record(
                obs_audit.RecordKind.OUTCOME,
                at_time=self.clock(),
                domain=outcome.denial_domain or "",
                user=str(user.dn),
                correlation_id=correlation_id,
                granted=outcome.granted,
                reason=outcome.denial_reason or "",
                rate_mbps=request.rate_mbps,
                window=(request.start, request.end),
                path=">".join(outcome.path),
                messages=outcome.messages,
                latency_s=f"{outcome.latency_s:.6f}",
            )
        if tracer is not None and root is not None:
            tracer.end(
                root,
                status="ok" if outcome.granted else "denied",
                granted=outcome.granted,
                sim_latency_s=outcome.latency_s,
                messages=outcome.messages,
            )
        registry = obs_metrics.get_registry()
        if registry is not None:
            registry.counter(
                "reservations_total",
                "End-to-end hop-by-hop reservation attempts",
            ).inc(result="granted" if outcome.granted else "denied")
            registry.counter(
                "signalling_messages_total",
                "Signalling messages exchanged by the hop-by-hop protocol",
            ).inc(outcome.messages)
            registry.counter(
                "signalling_bytes_total",
                "Signalling bytes exchanged by the hop-by-hop protocol",
            ).inc(outcome.bytes)
            registry.histogram(
                "signalling_latency_seconds",
                "Modelled end-to-end signalling latency per reservation",
            ).observe(outcome.latency_s)
            if not outcome.granted:
                registry.counter(
                    "denials_total", "Reservations denied, by denying domain",
                ).inc(domain=outcome.denial_domain or "")
        if outcome.granted:
            logger.info(
                "%s: granted along %s (latency %.1f ms, %d messages)",
                correlation_id, " -> ".join(outcome.path),
                outcome.latency_s * 1e3, outcome.messages,
            )
        else:
            logger.warning(
                "%s: denied by %s: %s", correlation_id,
                outcome.denial_domain, outcome.denial_reason,
            )
        return outcome

    def _signal(
        self,
        user: UserAgent,
        request: ReservationRequest,
        *,
        assertions: Sequence[SignedAssertion],
        restrictions: tuple[str, ...],
        tracer: obs_spans.Tracer | None,
        root: obs_spans.Span | None,
        deadline_s: float | None,
    ) -> SignallingOutcome:
        """The protocol body (request leg, reply leg); see :meth:`reserve`."""
        route_t0 = obs_spans.phase_clock()
        at_time = self.clock()
        path = self.domain_path(request.source_domain, request.destination_domain)
        outcome = SignallingOutcome(granted=False, path=tuple(path))
        if tracer is not None and root is not None:
            tracer.record(
                "route", parent=root, start_wall=route_t0, hops=len(path),
            )

        # User-side preparation: channel setup, capability delegation to
        # the source BB, and the signing of RAR_U itself.
        prepare_t0 = obs_spans.phase_clock()
        source_bb = self._broker(path[0])
        user_channel = self.channels.connect(user, source_bb, at_time=at_time)
        bb_public = user_channel.peer_certificate(user.dn).public_key

        capability_certs = user.delegate_capabilities_to(
            source_bb.dn, bb_public, restrictions=restrictions
        )
        all_assertions = tuple(assertions) + tuple(user.assertions)
        deadline_at = (
            at_time + deadline_s if deadline_s is not None else None
        )
        deadline = Deadline(deadline_at) if deadline_at is not None else None
        traceparent = (
            format_traceparent(
                TraceContext(trace_id=root.trace_id, span_id=root.span_id)
            )
            if root is not None
            else None
        )
        rar = make_user_rar(
            request=request,
            source_bb=source_bb.dn,
            capability_certs=capability_certs,
            assertions=all_assertions,
            user=user.dn,
            user_key=user.keypair.private,
            deadline=deadline_at,
            traceparent=traceparent,
        )
        if tracer is not None and root is not None:
            tracer.record(
                "prepare", parent=root, start_wall=prepare_t0,
                delegations=len(capability_certs),
            )

        granted_so_far: list[tuple[BandwidthBroker, str]] = []
        try:
            return self._signal_inner(
                user=user, request=request, path=path, outcome=outcome,
                rar=rar, user_channel=user_channel, deadline=deadline,
                granted_so_far=granted_so_far, tracer=tracer, root=root,
                at_time=at_time,
            )
        finally:
            # Whatever aborted the legs above — an injected crash between
            # two admissions, an unexpected bug — admitted capacity on the
            # partial path must never leak.  The normal denial/approval
            # paths consume ``granted_so_far`` themselves, so this only
            # fires on abnormal exits.
            if granted_so_far:
                self._release_granted(
                    granted_so_far, at_time=at_time,
                    reason="signalling aborted",
                )

    def _signal_inner(
        self,
        *,
        user: UserAgent,
        request: ReservationRequest,
        path: list[str],
        outcome: SignallingOutcome,
        rar: SignedEnvelope,
        user_channel: SecureChannel,
        deadline: Deadline | None,
        granted_so_far: list[tuple[BandwidthBroker, str]],
        tracer: obs_spans.Tracer | None,
        root: obs_spans.Span | None,
        at_time: float,
    ) -> SignallingOutcome:
        registry = obs_metrics.get_registry()
        event_log = obs_events.get_event_log()
        source_bb = self._broker(path[0])

        # --- request leg: hop by hop downstream --------------------------------
        sent_rar = rar
        inbound_channel = user_channel
        inbound_sender: DistinguishedName = user.dn
        phase_t0 = obs_spans.phase_clock()
        try:
            rar = self._deliver(
                user_channel, user.dn, rar, outcome=outcome,
                at_time=at_time, deadline=deadline, what="submit RAR_U",
            )
        except _DELIVERY_FAILURES as exc:
            if tracer is not None and root is not None:
                tracer.record(
                    "submit", parent=root, start_wall=phase_t0,
                    status="error", error=str(exc),
                )
            outcome.denial_domain = path[0]
            outcome.denial_reason = f"source broker unreachable: {exc}"
            obs_audit.record_decision(
                obs_audit.RecordKind.DENY,
                at_time=at_time, domain=path[0], user=str(user.dn),
                reason=outcome.denial_reason,
                reason_code=reason_code_for(exc).value,
                rate_mbps=request.rate_mbps,
            )
            return outcome
        except MalformedMessageError as exc:
            # The copy that reached the source broker was structurally
            # broken (truncated payload, unknown field tag, junk bytes):
            # a typed denial, not a raw decode exception.
            if tracer is not None and root is not None:
                tracer.record(
                    "submit", parent=root, start_wall=phase_t0,
                    status="error", error=str(exc),
                )
            outcome.denial_domain = path[0]
            outcome.denial_reason = f"malformed envelope: {exc}"
            if event_log is not None:
                event_log.emit(
                    EventKind.TRUST_FAILURE, at_time=at_time,
                    domain=path[0], reason=str(exc),
                    reason_code=ReasonCode.TRUST_FAILURE,
                )
            obs_audit.record_decision(
                obs_audit.RecordKind.DENY,
                at_time=at_time, domain=path[0], user=str(user.dn),
                reason=outcome.denial_reason,
                reason_code=ReasonCode.TRUST_FAILURE.value,
                rate_mbps=request.rate_mbps,
            )
            return outcome
        if tracer is not None and root is not None:
            tracer.record(
                "submit", parent=root, start_wall=phase_t0,
                sim_latency_s=user_channel.latency_s,
            )
        #: Where the current hop's accounting starts: taken the moment the
        #: previous instrumented stretch ended, so channel/certificate
        #: bookkeeping between hops lands in a named segment instead of
        #: pooling as untracked self-time.
        hop_t0 = obs_spans.phase_clock()

        channels_walked: list[SecureChannel] = [user_channel]
        upstream_peer_cert = user_channel.peer_certificate(source_bb.dn)

        #: Open ``hop`` spans in travel order; each closes when the reply
        #: passes back through that hop (denials close them early).
        hop_spans: list = []
        span_parent = root
        #: Latency the request paid to reach the hop being processed.
        inbound_latency_s = user_channel.latency_s

        denial: SignedEnvelope | None = None
        #: Accumulated cost of the path so far (§6.1: the request carries
        #: "a cost that the user is willing to accept"; each domain's
        #: tariff is added as the request moves downstream).
        accumulated_cost = 0.0
        usage_mbps_hours = request.rate_mbps * request.duration / 3600.0

        for index, domain in enumerate(path):
            bb = self._broker(domain)
            # Honor the end-to-end deadline as *carried in the RAR* —
            # each hop bounds its work by the budget the envelope states,
            # not by out-of-band knowledge.
            carried_deadline = rar.get(F_DEADLINE)
            if carried_deadline is not None:
                deadline = Deadline(float(carried_deadline))
            if obs_audit.get_ledger() is not None:
                # Recovery context for this hop's decision record: the
                # inbound link's breaker state and the end-to-end budget
                # left when the hop started working.
                obs_audit.note_recovery(
                    breaker_state=self._breaker_for(inbound_channel.link).state,
                    deadline_remaining_s=(
                        deadline.expires_at - (at_time + outcome.latency_s)
                        if deadline is not None else None
                    ),
                )
            outcome.latency_s += self.processing_delay_s
            hop_sim_latency_s = inbound_latency_s + self.processing_delay_s
            upstream = path[index - 1] if index > 0 else None
            downstream = path[index + 1] if index + 1 < len(path) else None

            hop_span = None
            if tracer is not None:
                # Parent under the span id the *envelope* names (the
                # upstream hop's span, carried in F_TRACEPARENT), exactly
                # as each signature layer wraps the upstream RAR; the
                # in-process chain is only a fallback for envelopes built
                # while tracing was off.
                carried_parent = _carried_parent_span_id(rar)
                if carried_parent is not None:
                    hop_span = tracer.begin(
                        "hop",
                        trace_id=root.trace_id,
                        parent_span_id=carried_parent,
                        start_wall=hop_t0,
                        domain=domain,
                        bb=str(bb.dn),
                    )
                else:
                    hop_span = tracer.begin(
                        "hop",
                        trace_id=root.trace_id,
                        parent=span_parent,
                        start_wall=hop_t0,
                        domain=domain,
                        bb=str(bb.dn),
                    )
                hop_spans.append(hop_span)
                span_parent = hop_span

            # Admission-plane defense gate, BEFORE any signature work:
            # the per-peer token bucket, the replay guard (keyed on the
            # envelope's canonical-bytes digest), and the overload shed
            # all run for the cost of a few dict operations, so abusive
            # signalling never reaches the expensive verification below.
            if bb.defense is not None:
                try:
                    bb.defense.admit_signal(
                        peer=(upstream if upstream is not None
                              else str(user.dn)),
                        peer_kind=("domain" if upstream is not None
                                   else "user"),
                        now=at_time + outcome.latency_s,
                        operation="reserve",
                        envelope_digest=_envelope_digest(rar.cbe_bytes()),
                    )
                except DefenseError as exc:
                    reason = str(exc)
                    code = reason_code_for(exc)
                    logger.warning(
                        "%s: defense gate rejected signal: %s", domain, reason
                    )
                    if tracer is not None:
                        tracer.record(
                            "defense", parent=hop_span, start_wall=hop_t0,
                            status="rejected", error=reason,
                        )
                    if event_log is not None:
                        event_log.emit(
                            EventKind.DENY, at_time=at_time, domain=domain,
                            user=str(user.dn), reason=reason,
                            reason_code=code,
                        )
                    obs_audit.record_decision(
                        obs_audit.RecordKind.DENY,
                        at_time=at_time, domain=domain, user=str(user.dn),
                        reason=reason, reason_code=code.value,
                        rate_mbps=request.rate_mbps,
                    )
                    denial = make_denial(
                        domain=domain, reason=reason,
                        bb=bb.dn, bb_key=bb.keypair.private,
                    )
                    break

            # Verification, with recovery: a tampered copy triggers a
            # bounded retransmission request upstream; a repository
            # outage triggers backoff-and-retry; genuine trust failures
            # deny immediately.  The phase opens at ``hop_t0`` so it
            # also owns the channel/certificate bookkeeping since the
            # previous hop's ``forward``.
            phase_t0 = hop_t0
            verified: VerifiedRAR | None = None
            verify_exc: Exception | None = None
            for attempt in range(1, self.retry_policy.max_attempts + 1):
                try:
                    if deadline is not None:
                        deadline.check(
                            at_time + outcome.latency_s,
                            what=f"verification at {domain}",
                        )
                    if self.repository is not None:
                        verified, lookups = verify_rar_with_repository(
                            rar,
                            verifier=bb.dn,
                            peer_certificate=upstream_peer_cert,
                            truststore=bb.truststore,
                            repository=self.repository,
                            at_time=at_time,
                        )
                        outcome.repository_lookups += lookups
                        lookup_latency_s = (
                            lookups * self.repository.lookup_latency_s
                        )
                        outcome.latency_s += lookup_latency_s
                        hop_sim_latency_s += lookup_latency_s
                    else:
                        verified = verify_rar(
                            rar,
                            verifier=bb.dn,
                            peer_certificate=upstream_peer_cert,
                            truststore=bb.truststore,
                            at_time=at_time,
                        )
                    break
                except TamperedMessageError as exc:
                    # Integrity failure on the received copy: ask the
                    # upstream sender to retransmit the original.
                    verify_exc = exc
                    if attempt >= self.retry_policy.max_attempts:
                        break
                    outcome.latency_s += self.retry_policy.backoff_s(
                        attempt, self.rng
                    )
                    self._note_retry(
                        outcome=outcome, what=f"verification at {domain}",
                        target=inbound_channel.link, attempt=attempt,
                        at_time=at_time + outcome.latency_s, reason=str(exc),
                    )
                    try:
                        rar = self._deliver(
                            inbound_channel, inbound_sender, sent_rar,
                            outcome=outcome, at_time=at_time,
                            deadline=deadline,
                            what=f"retransmission to {domain}",
                        )
                    except (*_DELIVERY_FAILURES, MalformedMessageError) as exc2:
                        verify_exc = exc2
                        break
                except RepositoryUnavailableError as exc:
                    verify_exc = exc
                    if attempt >= self.retry_policy.max_attempts:
                        break
                    outcome.latency_s += self.retry_policy.backoff_s(
                        attempt, self.rng
                    )
                    self._note_retry(
                        outcome=outcome, what=f"verification at {domain}",
                        target=str(
                            self.repository.name if self.repository else ""
                        ),
                        attempt=attempt,
                        at_time=at_time + outcome.latency_s, reason=str(exc),
                    )
                except DeadlineExceededError as exc:
                    verify_exc = exc
                    break
                except (TrustError, SignallingError, CertificateError,
                        EncodingError) as exc:
                    # EncodingError: a malformed inner layer surfaced
                    # during verification — denied like any other trust
                    # failure instead of escaping as a raw decode error.
                    verify_exc = exc
                    break
            if verified is None:
                exc = verify_exc
                if isinstance(exc, (DeadlineExceededError, RetryExhaustedError,
                                    CircuitOpenError)):
                    reason = str(exc)
                else:
                    reason = f"trust verification failed: {exc}"
                logger.warning("%s: trust verification failed: %s", domain, exc)
                if tracer is not None:
                    tracer.record(
                        "verify", parent=hop_span, start_wall=phase_t0,
                        status="error", error=str(exc),
                    )
                if event_log is not None:
                    event_log.emit(
                        EventKind.TRUST_FAILURE, at_time=at_time,
                        domain=domain, reason=str(exc),
                    )
                obs_audit.record_decision(
                    obs_audit.RecordKind.DENY,
                    at_time=at_time, domain=domain, user=str(user.dn),
                    reason=reason,
                    reason_code=(
                        reason_code_for(exc) if exc is not None
                        else ReasonCode.TRUST_FAILURE
                    ).value,
                    rate_mbps=request.rate_mbps,
                )
                denial = make_denial(
                    domain=domain, reason=reason,
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
                break
            if tracer is not None:
                tracer.record(
                    "verify", parent=hop_span, start_wall=phase_t0,
                    depth=verified.depth, signer=str(verified.user),
                )

            # Local decision pipeline, with recovery: the policy server
            # and this hop's own broker may be down transiently; a hop
            # whose broker stays down cannot even sign a denial, so the
            # upstream hop synthesizes one.
            try:
                phase_t0 = obs_spans.phase_clock()
                chains = split_capability_chains(verified.capability_chain)
                info = self._call_with_retries(
                    lambda: bb.policy_server.verify_credentials(
                        user=verified.user,
                        assertions=verified.assertions,
                        capability_chains=chains,
                        at_time=at_time,
                    ),
                    outcome=outcome, at_time=at_time, deadline=deadline,
                    what=f"credential verification at {domain}", target=domain,
                )
                path_attrs = self._verified_path_assertions(
                    verified, upstream_peer_cert, at_time
                )
                local_request = (
                    verified.request.with_attributes(**path_attrs)
                    if path_attrs
                    else verified.request
                )
                if tracer is not None:
                    tracer.record(
                        "policy", parent=hop_span, start_wall=phase_t0,
                        chains=len(chains), rejected=len(info.rejected),
                    )

                phase_t0 = obs_spans.phase_clock()
                admit = self._call_with_retries(
                    lambda: bb.admit(
                        local_request,
                        info,
                        at_time=at_time,
                        upstream=upstream,
                        downstream=downstream,
                    ),
                    outcome=outcome, at_time=at_time, deadline=deadline,
                    what=f"admission at {domain}", target=domain,
                )
            except _DELIVERY_FAILURES as exc:
                cause = exc.__cause__
                if isinstance(exc, RetryExhaustedError) and isinstance(
                    cause, BrokerUnavailableError
                ):
                    # This hop's BB is gone: it cannot sign anything.  The
                    # upstream hop detects the silence and synthesizes the
                    # denial (the user-facing report when it IS the source).
                    logger.warning(
                        "%s: broker unavailable, upstream reports: %s",
                        domain, exc,
                    )
                    if tracer is not None and hop_span is not None:
                        tracer.end(hop_span, status="failed", error=str(exc))
                    channels_walked.pop()
                    obs_audit.record_decision(
                        obs_audit.RecordKind.DENY,
                        at_time=at_time, domain=domain, user=str(user.dn),
                        reason=str(exc),
                        reason_code=ReasonCode.BROKER_UNREACHABLE.value,
                        rate_mbps=request.rate_mbps,
                    )
                    if index == 0:
                        outcome.denial_domain = domain
                        outcome.denial_reason = str(exc)
                        return outcome
                    prev_bb = self._broker(path[index - 1])
                    denial = make_denial(
                        domain=domain, reason=str(exc),
                        bb=prev_bb.dn, bb_key=prev_bb.keypair.private,
                    )
                else:
                    # Policy server / repository stayed down, or the
                    # deadline passed: this hop is alive and denies.
                    obs_audit.record_decision(
                        obs_audit.RecordKind.DENY,
                        at_time=at_time, domain=domain, user=str(user.dn),
                        reason=str(exc),
                        reason_code=reason_code_for(exc).value,
                        rate_mbps=request.rate_mbps,
                    )
                    denial = make_denial(
                        domain=domain, reason=str(exc),
                        bb=bb.dn, bb_key=bb.keypair.private,
                    )
                break
            if tracer is not None:
                tracer.record(
                    "admission", parent=hop_span, start_wall=phase_t0,
                    granted=admit.granted, handle=admit.reservation.handle,
                )
            # The next phase (delegation at the destination, forward
            # everywhere else) opens here so that metering and cost
            # negotiation are attributed to it.
            phase_t0 = obs_spans.phase_clock()
            outcome.handles[domain] = admit.reservation.handle
            if registry is not None:
                registry.histogram(
                    "hop_latency_seconds",
                    "Modelled per-hop signalling latency (inbound channel "
                    "crossing + processing + repository lookups)",
                ).observe(hop_sim_latency_s, domain=domain)
            if not admit.granted:
                denial = make_denial(
                    domain=domain, reason=admit.reason,
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
                break
            granted_so_far.append((bb, admit.reservation.handle))

            # Cost negotiation: this domain's tariff (its ingress SLA price
            # for transit/destination domains) joins the running total; the
            # request dies where the user's ceiling is first exceeded.
            if upstream is not None:
                sla = bb.slas_in.get(upstream)
                if sla is not None:
                    accumulated_cost += sla.price_per_mbps_hour * usage_mbps_hours
            if accumulated_cost > request.cost_ceiling:
                bb.cancel(
                    admit.reservation.handle,
                    reason="cost ceiling exceeded",
                    reason_code=ReasonCode.UNWOUND,
                )
                granted_so_far.pop()
                reason = (
                    f"cost ceiling exceeded: path costs "
                    f"{accumulated_cost:.2f} so far, user accepts at most "
                    f"{request.cost_ceiling:.2f}"
                )
                obs_audit.record_decision(
                    obs_audit.RecordKind.DENY,
                    at_time=at_time, domain=domain, user=str(user.dn),
                    reason=reason,
                    reason_code=ReasonCode.COST_CEILING.value,
                    rate_mbps=request.rate_mbps,
                )
                denial = make_denial(
                    domain=domain, reason=reason,
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
                break
            outcome.cost = accumulated_cost

            if downstream is None:
                # Destination domain: full §6.5 check — every chain, with
                # proof of possession by this BB.
                outcome.final_rar = rar
                outcome.verified = verified
                results = []
                for chain in chains:
                    try:
                        results.append(
                            verify_delegation_chain(
                                list(chain),
                                trusted_issuers=bb.policy_server._trusted_communities,
                                at_time=at_time,
                                possession_nonce=b"hop-by-hop-final",
                                possession_prover=lambda nonce: prove_possession(
                                    bb.keypair.private, nonce
                                ),
                                revocation_checker=(
                                    bb.policy_server.revocation_checker
                                ),
                            )
                        )
                    except DelegationError:
                        continue
                outcome.delegations = tuple(results)
                outcome.delegation = results[0] if results else None
                if tracer is not None:
                    tracer.record(
                        "delegation", parent=hop_span, start_wall=phase_t0,
                        chains=len(chains), verified=len(results),
                    )
                break

            # Forward downstream: delegate every capability chain this BB
            # holds, introduce the upstream certificate.
            next_bb = self._broker(downstream)
            channel = self.channels.connect(bb, next_bb, at_time=at_time)
            forwarded_caps: tuple[Certificate, ...] = tuple(
                delegate(
                    cred,
                    delegate_subject=next_bb.dn,
                    delegate_public_key=channel.peer_certificate(bb.dn).public_key,
                )
                for cred in self._bb_credentials(bb, chains)
            )
            added_assertions: tuple[SignedAssertion, ...] = ()
            if admit.decision is not None and admit.decision.modifications:
                added_assertions = (
                    make_assertion(
                        issuer=bb.dn,
                        issuer_key=bb.keypair.private,
                        subject=verified.user,
                        attributes=dict(admit.decision.modifications),
                    ),
                )
            forward_rar = make_bb_rar(
                inner=rar,
                introduced_cert=(
                    None if self.repository is not None else upstream_peer_cert
                ),
                downstream=next_bb.dn,
                capability_certs=forwarded_caps,
                assertions=added_assertions,
                bb=bb.dn,
                bb_key=bb.keypair.private,
                # Append-only chain layer: this BB signs a digest link
                # to the received bytes, not the re-encoded chain.
                append=True,
                # Rewrite the trace context: the downstream hop's spans
                # hang under THIS hop's span, mirroring how this layer
                # wraps the upstream RAR.
                traceparent=(
                    format_traceparent(
                        TraceContext(
                            trace_id=hop_span.trace_id,
                            span_id=hop_span.span_id,
                        )
                    )
                    if hop_span is not None
                    else None
                ),
            )
            try:
                rar = self._deliver(
                    channel, bb.dn, forward_rar, outcome=outcome,
                    at_time=at_time, deadline=deadline,
                    what=f"forward to {downstream}",
                )
            except _DELIVERY_FAILURES as exc:
                obs_audit.record_decision(
                    obs_audit.RecordKind.DENY,
                    at_time=at_time, domain=downstream, user=str(user.dn),
                    reason=f"domain {downstream} unreachable: {exc}",
                    reason_code=reason_code_for(exc).value,
                    rate_mbps=request.rate_mbps,
                )
                denial = make_denial(
                    domain=downstream,
                    reason=f"domain {downstream} unreachable: {exc}",
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
                break
            except MalformedMessageError as exc:
                # The forwarded copy arrived structurally broken at the
                # downstream hop: a typed denial from there, upstream.
                reason = f"malformed envelope at {downstream}: {exc}"
                if event_log is not None:
                    event_log.emit(
                        EventKind.TRUST_FAILURE, at_time=at_time,
                        domain=downstream, reason=str(exc),
                        reason_code=ReasonCode.TRUST_FAILURE,
                    )
                obs_audit.record_decision(
                    obs_audit.RecordKind.DENY,
                    at_time=at_time, domain=downstream, user=str(user.dn),
                    reason=reason,
                    reason_code=ReasonCode.TRUST_FAILURE.value,
                    rate_mbps=request.rate_mbps,
                )
                denial = make_denial(
                    domain=downstream, reason=reason,
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
                break
            if tracer is not None:
                tracer.record(
                    "forward", parent=hop_span, start_wall=phase_t0,
                    downstream=downstream,
                    sim_latency_s=channel.latency_s,
                )
            hop_t0 = obs_spans.phase_clock()
            inbound_latency_s = channel.latency_s
            channels_walked.append(channel)
            sent_rar = forward_rar
            inbound_channel = channel
            inbound_sender = bb.dn
            upstream_peer_cert = channel.peer_certificate(next_bb.dn)

        # --- reply leg: approval or denial back upstream ------------------------
        if denial is not None:
            denial_domain = denial[F_DOMAIN]
            denial_reason = denial[F_REASON]
            # Release what was granted on the partial path.
            self._release_granted(
                granted_so_far, at_time=at_time,
                reason=f"denied by {denial_domain}",
            )
            reply = denial
            # The denial travels back over the channels already walked; on
            # each channel the downstream endpoint is the sender.  A reply
            # hop that stays unreachable after retries loses the denial —
            # capacity is already safe, the user sees a timeout.
            for index in range(len(channels_walked) - 1, -1, -1):
                channel = channels_walked[index]
                sender = self._broker(path[index]).dn
                phase_t0 = obs_spans.phase_clock()
                reply_parent = (
                    hop_spans[index] if index < len(hop_spans) else root
                )
                try:
                    reply = self._deliver(
                        channel, sender, reply, outcome=outcome,
                        at_time=at_time, deadline=None, what="denial reply",
                    )
                except SignallingError as exc:
                    logger.warning(
                        "denial by %s lost on link %s: %s",
                        denial_domain, channel.link, exc,
                    )
                    if tracer is not None:
                        if reply_parent is not None:
                            tracer.record(
                                "reply", parent=reply_parent,
                                start_wall=phase_t0, status="error",
                                error=str(exc),
                            )
                        for j in range(index, -1, -1):
                            if j < len(hop_spans):
                                tracer.end(hop_spans[j], status="released")
                    break
                if tracer is not None and reply_parent is not None:
                    tracer.record(
                        "reply", parent=reply_parent, start_wall=phase_t0,
                        sim_latency_s=channel.latency_s,
                    )
                if tracer is not None and index < len(hop_spans):
                    hop = hop_spans[index]
                    tracer.end(
                        hop,
                        status=(
                            "denied"
                            if hop.attributes.get("domain") == denial_domain
                            else "released"
                        ),
                    )
            outcome.denial_domain = denial_domain
            outcome.denial_reason = denial_reason
            outcome.approval = None
            return outcome

        # Approval chain: destination first, wrapped at each hop upstream.
        reply = None
        for index in range(len(path) - 1, -1, -1):
            domain = path[index]
            bb = self._broker(domain)
            phase_t0 = obs_spans.phase_clock()
            reply_parent = hop_spans[index] if index < len(hop_spans) else root
            policy_info: tuple[SignedAssertion, ...] = ()
            approval = make_approval(
                handle=outcome.handles[domain],
                domain=domain,
                policy_info=policy_info,
                inner=reply,
                bb=bb.dn,
                bb_key=bb.keypair.private,
            )
            channel = channels_walked[index]
            try:
                reply = self._deliver(
                    channel, bb.dn, approval, outcome=outcome,
                    at_time=at_time, deadline=deadline, what="approval reply",
                )
            except SignallingError as exc:
                # Without the approval the user holds no proof and no
                # handles: treat the reservation as failed, release every
                # admission (graceful degradation: deny, don't leak).
                self._release_granted(
                    granted_so_far, at_time=at_time,
                    reason=f"approval undeliverable at {domain}",
                )
                outcome.granted = False
                outcome.denial_domain = domain
                outcome.denial_reason = f"approval could not be delivered: {exc}"
                outcome.approval = None
                obs_audit.record_decision(
                    obs_audit.RecordKind.DENY,
                    at_time=at_time, domain=domain, user=str(user.dn),
                    reason=outcome.denial_reason,
                    reason_code=reason_code_for(exc).value,
                    rate_mbps=request.rate_mbps,
                )
                if tracer is not None:
                    if reply_parent is not None:
                        tracer.record(
                            "reply", parent=reply_parent, start_wall=phase_t0,
                            status="error", error=str(exc),
                        )
                    for j in range(index, -1, -1):
                        if j < len(hop_spans):
                            tracer.end(hop_spans[j], status="released")
                return outcome
            if tracer is not None and reply_parent is not None:
                tracer.record(
                    "reply", parent=reply_parent, start_wall=phase_t0,
                    sim_latency_s=channel.latency_s,
                )
            if tracer is not None and index < len(hop_spans):
                tracer.end(
                    hop_spans[index],
                    handle=outcome.handles[domain],
                )
        outcome.approval = reply
        outcome.granted = True
        granted_so_far.clear()
        return outcome

    # -- ingress processing (defense gate for unsolicited traffic) ----------------------

    def process_ingress(
        self,
        domain: str,
        message: object,
        *,
        peer: str,
        peer_certificate: Certificate | None = None,
        peer_kind: str = "user",
        at_time: float | None = None,
        operation: str = "reserve",
    ) -> IngressReport:
        """Process one unsolicited inbound signalling message at *domain*.

        The reservation path (:meth:`reserve`) drives brokers from the
        sender's side; a byzantine peer, by contrast, just *sends* — so
        the receiving side needs an explicit entry point that runs the
        same three stages the per-hop loop applies, cheapest first:

        1. the defense gate (per-peer token bucket, replay guard, shed) —
           cost :data:`WORK_GATE`;
        2. structural decode into a signed envelope — :data:`WORK_DECODE`;
        3. transitive-trust verification (when *peer_certificate* is
           supplied; plain nested-layer unwrapping otherwise) —
           :data:`WORK_VERIFY`.

        Returns an :class:`IngressReport`; never raises for a rejected
        message.  ``report.work_units`` is what the message actually cost
        this broker, which the survivability harness integrates into the
        victim's modelled work queue — with defenses off every junk or
        replayed envelope costs the full verification walk, with defenses
        on it costs a dict lookup.
        """
        now = at_time if at_time is not None else self.clock()
        bb = self._broker(domain)
        registry = obs_metrics.get_registry()
        event_log = obs_events.get_event_log()

        def reject(
            exc: Exception, work_units: float, *,
            verified: bool = False,
            traceparent: str | None = None,
            deadline: float | None = None,
        ) -> IngressReport:
            code = reason_code_for(exc)
            if registry is not None:
                registry.counter(
                    "ingress_messages_total",
                    "Unsolicited inbound signalling messages by domain "
                    "and outcome",
                ).inc(domain=domain, outcome="rejected")
            if event_log is not None:
                event_log.emit(
                    EventKind.DENY, at_time=now, domain=domain,
                    user=peer, reason=str(exc), reason_code=code,
                )
            obs_audit.record_decision(
                obs_audit.RecordKind.DENY,
                at_time=now, domain=domain, user=peer,
                reason=str(exc), reason_code=code.value,
            )
            return IngressReport(
                accepted=False, work_units=work_units, verified=verified,
                reason=str(exc), reason_code=code.value,
                traceparent=traceparent, deadline=deadline,
            )

        if isinstance(message, (bytes, bytearray, memoryview)):
            message_digest = _envelope_digest(bytes(message))
        elif isinstance(message, SignedEnvelope):
            message_digest = _envelope_digest(message.cbe_bytes())
        else:
            message_digest = None
        if bb.defense is not None:
            try:
                bb.defense.admit_signal(
                    peer=peer, peer_kind=peer_kind, now=now,
                    operation=operation, envelope_digest=message_digest,
                )
            except DefenseError as exc:
                return reject(exc, WORK_GATE)
        try:
            envelope = self._decode_received(
                message, what=f"ingress at {domain}"
            )
        except MalformedMessageError as exc:
            return reject(exc, WORK_DECODE)
        # Trace/deadline metadata of the outer layer, for the report.
        # Scalar-filtered so both codecs (and crafted non-scalar fields)
        # report identically; no re-parse — the envelope is materialized.
        raw_tp = envelope.get(F_TRACEPARENT)
        traceparent = raw_tp if isinstance(raw_tp, str) else None
        raw_dl = envelope.get(F_DEADLINE)
        deadline = (
            float(raw_dl)
            if isinstance(raw_dl, (int, float))
            and not isinstance(raw_dl, bool)
            else None
        )
        if peer_certificate is None:
            try:
                unwrap_rar_layers(envelope)
            except SignallingError as exc:
                return reject(
                    exc, WORK_DECODE,
                    traceparent=traceparent, deadline=deadline,
                )
            work_units = WORK_DECODE
            verified = False
        else:
            self.ingress_verifications += 1
            try:
                verify_rar(
                    envelope,
                    verifier=bb.dn,
                    peer_certificate=peer_certificate,
                    truststore=bb.truststore,
                    at_time=now,
                )
            except (TrustError, SignallingError, CertificateError,
                    EncodingError) as exc:
                return reject(
                    exc, WORK_VERIFY, verified=True,
                    traceparent=traceparent, deadline=deadline,
                )
            work_units = WORK_VERIFY
            verified = True
        if registry is not None:
            registry.counter(
                "ingress_messages_total",
                "Unsolicited inbound signalling messages by domain "
                "and outcome",
            ).inc(domain=domain, outcome="accepted")
        return IngressReport(
            accepted=True, work_units=work_units, verified=verified,
            traceparent=traceparent, deadline=deadline,
        )

    def process_ingress_batch(
        self,
        domain: str,
        messages: Sequence[object],
        *,
        peer: str,
        peer_certificate: Certificate | None = None,
        peer_kind: str = "user",
        at_time: float | None = None,
        operation: str = "reserve",
    ) -> list[IngressReport]:
        """Process a burst of inbound messages at *domain*, amortized.

        Per-message semantics are *identical* to calling
        :meth:`process_ingress` in a loop — same gate decisions, same
        reports, same ledger records, in order — but all verifications
        run under one shared verification-cache scope
        (:func:`repro.crypto.batch.use_batch_caches`): signatures, trust
        chains and delegation links repeated across the burst are checked
        once and reused, with the PR-5 hit-time guards re-validating
        every reuse, so a revocation landing mid-burst still rejects
        exactly as it would sequentially.
        """
        with batch_verification.use_batch_caches():
            return [
                self.process_ingress(
                    domain, message, peer=peer,
                    peer_certificate=peer_certificate,
                    peer_kind=peer_kind, at_time=at_time,
                    operation=operation,
                )
                for message in messages
            ]

    # -- lifecycle helpers --------------------------------------------------------------

    def claim(self, outcome: SignallingOutcome) -> None:
        """Activate a granted end-to-end reservation in every domain (edge
        routers get configured through each broker's configurator)."""
        if not outcome.granted:
            raise SignallingError("cannot claim a denied reservation")
        logger.info("%s: claiming along %s", outcome.correlation_id,
                    " -> ".join(outcome.path))
        now = self.clock()
        with obs_events.correlation_scope(outcome.correlation_id):
            for domain in outcome.path:
                self._broker(domain).claim(
                    outcome.handles[domain], at_time=now
                )

    def cancel(self, outcome: SignallingOutcome) -> None:
        logger.info("%s: cancelling along %s", outcome.correlation_id,
                    " -> ".join(outcome.path))
        with obs_events.correlation_scope(outcome.correlation_id):
            for domain in outcome.path:
                handle = outcome.handles.get(domain)
                if handle is not None:
                    self._broker(domain).cancel(handle)

    def refresh(self, outcome: SignallingOutcome) -> None:
        """RSVP-style soft-state refresh: renew the lease of a granted
        reservation in every domain on its path (a no-op for hard-state
        brokers)."""
        if not outcome.granted:
            raise SignallingError("cannot refresh a denied reservation")
        now = self.clock()
        with obs_events.correlation_scope(outcome.correlation_id):
            for domain in outcome.path:
                handle = outcome.handles.get(domain)
                if handle is not None:
                    self._broker(domain).refresh(handle, at_time=now)

    def modify(
        self,
        user: UserAgent,
        outcome: SignallingOutcome,
        *,
        rate_mbps: float,
    ) -> SignallingOutcome:
        """Renegotiate a granted reservation's rate end to end.

        GARA models a modification as a fresh admission decision; the
        safe order is release-then-re-reserve with rollback: the old
        reservation is cancelled in every domain, the new rate is
        requested through the full protocol, and if any domain refuses —
        or the new attempt aborts outright — the original reservation is
        restored (it must fit — its capacity was just freed).  Returns
        the outcome of the *new* reservation (granted or not); on denial,
        ``outcome`` remains valid.
        """
        if not outcome.granted or outcome.verified is None:
            raise SignallingError("can only modify granted reservations")
        from dataclasses import replace as _replace

        old_request = outcome.verified.request
        new_request = _replace(old_request, rate_mbps=rate_mbps)
        self.cancel(outcome)
        try:
            fresh = self.reserve(user, new_request)
        except Exception:
            # The re-reserve aborted mid-flight; its own unwind released
            # any partial grants, so the old reservation must be restored
            # before the exception reaches the caller.
            self._restore_after_modify(user, old_request, outcome)
            raise
        if fresh.granted:
            return fresh
        self._restore_after_modify(user, old_request, outcome)
        return fresh

    def _restore_after_modify(
        self,
        user: UserAgent,
        old_request: ReservationRequest,
        outcome: SignallingOutcome,
    ) -> None:
        restored = self.reserve(user, old_request)
        if not restored.granted:  # pragma: no cover - defensive
            raise SignallingError(
                "failed to restore the original reservation after a denied "
                f"modification: {restored.denial_reason}"
            )
        # Keep the caller's outcome object pointing at live handles.
        outcome.handles = restored.handles
        outcome.approval = restored.approval
        outcome.final_rar = restored.final_rar
        outcome.verified = restored.verified
