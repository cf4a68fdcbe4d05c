"""Approach 2: hop-by-hop inter-BB signalling (the paper's contribution).

"Alice only contacts BB_A, which then propagates the reservation request
to BB_B only if the reservation was accepted by BB_A.  Similarly, BB_B
contacts BB_C.  With this solution, each BB only needs to know about its
neighboring BBs, and all BBs are always contacted." (§3)

The source / intermediate / destination behaviours of §§6.1–6.3 are
one per-hop step applied along the path, and the engine has that step
once (docs/PROTOCOL.md §5 tabulates its stages):

1. the user's agent signs ``RAR_U`` (delegating its capabilities to the
   source BB) and submits it over the mutually authenticated user↔BB
   channel (``_submit``);
2. every BB passes the message through its defense gate, decodes it and
   verifies the nested envelope with transitive trust (``_receive``),
   runs its policy server and admission control (``_decide``), and — if
   it grants and is not the destination — re-delegates the capability,
   introduces the upstream certificate, and forwards ``RAR_{N+1}``
   downstream (``_forward``);
3. a stage refuses by raising ``_Refused``; one writer (``_deny``) turns
   that into the failed phase, the recorded decision and the signed
   denial, which propagates back upstream with its reason (``_reply``);
   already granted reservations along the partial path are released;
4. the destination keeps the capability chains its policy server
   verified that end at its own key (``_finish_at_destination``: §6.5's
   final-holder check, settled by the channel handshake) and the approval
   propagates back the same way with each BB adding its signed layer.

:meth:`HopByHopProtocol.reserve` is the loop that carries the request
from one hop's step to the next; :meth:`HopByHopProtocol.process_ingress`
runs ``_receive`` — the same code, not a copy — on unsolicited traffic.

Failure recovery (the part the paper leaves implicit): every channel
crossing runs under the per-hop timeout :data:`HOP_TIMEOUT_S` with the
retry budget, exponential backoff + seeded jitter and per-peer-link
circuit breaker of :mod:`repro.core.recovery`; an optional end-to-end
deadline travels in the RAR itself (``F_DEADLINE``) so retries at an
early hop shrink every later hop's budget; a hop whose broker, policy
server, or repository stays down after retries turns into an
upstream-signed denial; and partial-path admissions are *always*
released — explicitly where reachable, tolerantly skipped
(``UNWIND_FAILED``) where not, with the brokers' soft-state expiry as
the backstop.

Latency accounting (benchmark C1): every channel crossing contributes its
one-way latency, every BB decision contributes :data:`PROCESSING_DELAY_S`,
and every timeout/backoff contributes its modelled wait; the engine sums
these along the actual message trajectory.
"""

from __future__ import annotations

import logging
import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, TypeVar

from repro.bb.broker import AdmitOutcome, BandwidthBroker
from repro.bb.defense import digest as _envelope_digest
from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.channel import ChannelRegistry, SecureChannel
from repro.core.codec import WireView
from repro.crypto.dn import DistinguishedName
from repro.core.envelope import SignedEnvelope
from repro.core.messages import (
    F_DEADLINE,
    F_DOMAIN,
    F_TRACEPARENT,
    make_approval,
    make_bb_rar,
    make_denial,
    make_user_rar,
)
from repro.core.recovery import (
    MAX_ATTEMPTS,
    CircuitBreaker,
    Deadline,
    backoff_s,
)
from repro.core.trust import (
    VerifiedRAR,
    verify_rar,
    verify_rar_with_repository,
)
from repro.crypto.capability import CheckedChain, ProxyCredential, delegate
from repro.crypto.repository import CertificateRepository
from repro.crypto.x509 import Certificate
from repro.errors import (
    BrokerUnavailableError,
    CertificateError,
    ChannelTimeoutError,
    CircuitOpenError,
    DeadlineExceededError,
    DefenseError,
    EncodingError,
    MalformedMessageError,
    MessageDroppedError,
    PolicyUnavailableError,
    RepositoryUnavailableError,
    ReproError,
    RetryExhaustedError,
    SignallingError,
    TrustError,
    TamperedMessageError,
)
from repro.obs import decisions
from repro.obs import events as obs_events
from repro.obs import spans as obs_spans
from repro.obs.audit import ledger as obs_audit
from repro.obs.events import ReasonCode, reason_code_for
from repro.policy.attributes import SignedAssertion, make_assertion

__all__ = [
    "PROCESSING_DELAY_S", "HOP_TIMEOUT_S",
    "SignallingOutcome", "IngressReport", "HopByHopProtocol",
]

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Modelled time one BB spends on one admission decision.
PROCESSING_DELAY_S = 0.001
#: How long a sender waits for a channel delivery before declaring the
#: message lost and retrying (modelled seconds).
HOP_TIMEOUT_S = 0.25

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


def _carried_deadline(rar: SignedEnvelope) -> float | None:
    """The end-to-end deadline the envelope's outer layer claims
    (:data:`~repro.core.messages.F_DEADLINE`; scalar numeric only — a
    crafted non-scalar field counts as absent)."""
    carried = rar.get(F_DEADLINE)
    if isinstance(carried, (int, float)) and not isinstance(carried, bool):
        return float(carried)
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


@dataclass
class _Hop:
    """One broker's turn at a request: what its stages hand each other."""

    domain: str
    bb: BandwidthBroker
    upstream: str | None
    downstream: str | None
    #: Who the defense gate meters: the upstream domain, or the user.
    peer: str
    peer_kind: str
    #: The certificate the sender presented on the inbound channel.
    peer_certificate: Certificate | None
    #: What a retransmission request re-delivers — inbound channel, its
    #: sending endpoint, the copy sent; ``None`` at unsolicited ingress.
    resend: tuple[SecureChannel, DistinguishedName, object] | None = None
    #: The request as decoded at this hop (set by ``_receive``).
    rar: SignedEnvelope | None = None


@dataclass
class _Attempt:
    """What one signalling attempt carries from hop to hop."""

    #: Who asked, as decision records name them.
    user: str
    at_time: float
    outcome: SignallingOutcome
    rate_mbps: float = 0.0
    operation: str = "reserve"
    deadline: Deadline | None = None
    #: Hops opened so far with their inbound channels, in travel order;
    #: the reply walks them back.
    walked: list[tuple[_Hop, SecureChannel]] = field(default_factory=list)
    #: Admissions made on the partial path, released on any denial.
    granted: list[tuple[BandwidthBroker, str]] = field(default_factory=list)
    #: Accumulated transit cost of the path so far.
    cost: float = 0.0


def _outage(exc: ReproError) -> ReproError:
    """The service outage behind a spent retry budget: a policy server
    or repository that stayed down is reported as itself (its own
    reason code), not as the retry count.  Any other error is itself."""
    cause = exc.__cause__
    if isinstance(exc, RetryExhaustedError) and isinstance(cause, ReproError):
        return cause
    return exc


class _Refused(Exception):
    """A stage refused the request: everything the denial writer
    (``HopByHopProtocol._deny``) needs, raised from where it happened."""

    def __init__(
        self,
        domain: str,
        reason: str,
        cause: ReproError | ReasonCode | None,
        *,
        signer: BandwidthBroker | None = None,
        phase: str | None = None,
        work: float = WORK_VERIFY,
    ) -> None:
        super().__init__(reason)
        #: The domain the user is told denied the request.
        self.domain = domain
        self.reason = reason
        #: ``None``: the broker's own admission pipeline already
        #: recorded this denial; only the signed denial is missing.
        self.code = (
            reason_code_for(cause) if isinstance(cause, ReproError) else cause
        )
        #: The live broker that signs the denial, if any can.
        self.signer = signer
        #: The phase that failed, recorded as an error span.
        self.phase = phase
        #: What reaching the refusing stage cost the receiver (``WORK_*``).
        self.work = work


class HopByHopProtocol:
    """Drives hop-by-hop signalling across a set of peered brokers.

    Every hop decision costs :data:`PROCESSING_DELAY_S`, every delivery
    waits at most :data:`HOP_TIMEOUT_S`, and retries, backoff and
    breakers follow the one setting of :mod:`repro.core.recovery`.
    """

    def __init__(
        self,
        brokers: Mapping[str, BandwidthBroker],
        channels: ChannelRegistry,
        domain_path: Callable[[str, str], list[str]],
        *,
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self.brokers = dict(brokers)
        self.channels = channels
        self.domain_path = domain_path
        self.clock = clock
        #: Optional trusted certificate repository (§6.4 alternative 2),
        #: assigned after construction.  When set, BBs do NOT carry
        #: introduced certificates in the RAR; every verifier resolves
        #: inner-signer keys by DN instead, paying one repository lookup
        #: per unknown signer.
        self.repository: CertificateRepository | None = None
        #: The backoff jitter's RNG.  crc32 seed, not hash():
        #: deterministic across processes (REP108).
        self.rng = random.Random(zlib.crc32(b"hopbyhop-recovery"))
        #: One circuit breaker per channel link, persisting across
        #: requests so a proven-dead link fails fast.
        self._breakers: dict[str, CircuitBreaker] = {}
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
        breaker = self._breakers.get(link)
        if breaker is None:
            breaker = CircuitBreaker(link)
            self._breakers[link] = breaker
        return breaker

    def breaker_snapshot(self) -> dict[str, str]:
        """Current state of every per-link circuit breaker, keyed by
        the canonical ``a|b`` link label — the telemetry probe's view
        (the flight recorder samples it each frame)."""
        return {
            link: breaker.state
            for link, breaker in sorted(self._breakers.items())
        }

    def _back_off(
        self, att: _Attempt, attempt: int, *, what: str, target: str,
        reason: str,
    ) -> None:
        """Wait out the retry backoff for a failed *attempt* of *what*
        (modelled, seeded jitter) and note the retry everywhere it shows."""
        outcome = att.outcome
        outcome.latency_s += backoff_s(attempt, self.rng)
        outcome.retries += 1
        obs_audit.note_retry(target=target, reason=reason)
        logger.info("retry %d of %s (%s): %s", attempt, what, target, reason)
        decisions.record(
            "retry", at_time=att.at_time + outcome.latency_s,
            reason=reason, target=target, what=what, attempt=attempt,
        )

    @staticmethod
    def _decode_received(received: object, *, what: str) -> SignedEnvelope:
        """Structural validation of a delivered message.

        Wire bytes are decoded by :class:`~repro.core.codec.WireView` in
        one fused pass, which accepts exactly what ``to_wire`` writes —
        a second spelling of a message the replay guard has seen is
        refused here, before any signature work; anything that is not
        (or does not decode to) a :class:`SignedEnvelope` raises a typed
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
        att: _Attempt,
        channel: SecureChannel,
        sender: DistinguishedName,
        message: object,
        *,
        deadline: Deadline | None,
        what: str,
    ) -> object:
        """One reliable-ish delivery: per-hop timeout, bounded retries
        with backoff + jitter, and the link's circuit breaker.

        Returns what arrived, undecoded: a receiver gates a request
        before it spends anything on decoding (:meth:`_receive`); a
        reply is decoded by :meth:`_reply`.  Modelled latency for every
        attempt — successful crossing, timed out wait, and backoff alike
        — accrues to the attempt's outcome; message and byte counters
        only count copies that actually arrived.
        """
        outcome, at_time = att.outcome, att.at_time
        breaker = self._breaker_for(channel.link)
        last_exc: ReproError | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            now = at_time + outcome.latency_s
            if deadline is not None:
                deadline.check(now, what=what)
            breaker.check(now)
            try:
                received, extra = channel.transmit_timed(sender, message)
            except MessageDroppedError as exc:
                last_exc = exc
            else:
                if extra > 0.0 and extra >= HOP_TIMEOUT_S:
                    # Delivered, but after the sender's timeout fired; the
                    # receiver discards the stale copy as a duplicate.
                    last_exc = ChannelTimeoutError(
                        f"{what}: delivery on {channel.link} took "
                        f"{extra:.3f}s, over the {HOP_TIMEOUT_S:.3f}s "
                        "hop timeout"
                    )
                else:
                    outcome.latency_s += channel.latency_s + extra
                    outcome.messages += 1
                    if isinstance(received, SignedEnvelope):
                        outcome.bytes += received.wire_size()
                    elif isinstance(received, (bytes, bytearray, memoryview)):
                        outcome.bytes += len(received)
                    breaker.record_success(at_time + outcome.latency_s)
                    return received
            # The sender waited out its timeout without an acknowledgement.
            outcome.latency_s += HOP_TIMEOUT_S
            breaker.record_failure(at_time + outcome.latency_s)
            if attempt < MAX_ATTEMPTS:
                self._back_off(
                    att, attempt, what=what, target=channel.link,
                    reason=str(last_exc),
                )
        raise RetryExhaustedError(
            f"{what}: no delivery on link {channel.link} after "
            f"{MAX_ATTEMPTS} attempts: {last_exc}"
        ) from last_exc

    def _call_with_retries(
        self, op: Callable[[], _T], att: _Attempt, *, what: str, target: str,
    ) -> _T:
        """Run *op* with bounded retries over transient service outages
        (crashed broker, policy server / repository timeout)."""
        last_exc: ReproError | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if att.deadline is not None:
                att.deadline.check(
                    att.at_time + att.outcome.latency_s, what=what
                )
            try:
                return op()
            except _TRANSIENT_ERRORS as exc:
                last_exc = exc
                if attempt < MAX_ATTEMPTS:
                    self._back_off(
                        att, attempt, what=what, target=target,
                        reason=str(exc),
                    )
        raise RetryExhaustedError(
            f"{what} failed after {MAX_ATTEMPTS} attempts: {last_exc}"
        ) from last_exc

    def _release_granted(self, att: _Attempt, reason: str) -> None:
        """Release partial-path admissions, tolerating broker failures.

        An unreachable broker cannot release explicitly; the failure is
        recorded (``UNWIND_FAILED``) and its soft-state lease — when the
        broker runs soft state — reclaims the capacity on expiry.
        Consumes ``att.granted`` so callers (and the enclosing
        ``finally``) never release twice.
        """
        granted, at_time = att.granted, att.at_time
        while granted:
            bb, handle = granted.pop()
            try:
                bb.cancel(handle, reason=reason, reason_code=ReasonCode.UNWOUND)
            except ReproError as exc:
                logger.warning(
                    "%s: unwind of %s failed (%s); soft state must reclaim",
                    bb.domain, handle, exc,
                )
                decisions.record(
                    "unwind_failed", at_time=at_time, domain=bb.domain,
                    handle=handle, reason=str(exc),
                    reason_code=ReasonCode.UNWIND_RELEASE_FAILED,
                )
                continue
            logger.info("%s: released %s (%s)", bb.domain, handle, reason)
            decisions.record(
                "release", at_time=at_time, domain=bb.domain, handle=handle,
                reason=reason, reason_code=ReasonCode.UNWOUND,
            )

    def _verified_path_assertions(
        self, verified: VerifiedRAR, peer_certificate: Certificate | None,
        at_time: float,
    ) -> dict[str, object]:
        """Merge attributes from assertions whose issuer's signature checks
        out against a certificate we saw in the chain."""
        seen = (verified.user_certificate, *verified.introduced, peer_certificate)
        certs = {cert.subject: cert for cert in seen if cert is not None}
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
        the request is in flight carries it, and a ``reserve`` root span
        plus one nested ``hop`` span per BB record the trajectory exactly
        as the signature envelopes nest it (when a tracer listens).
        """
        correlation_id = obs_spans.mint_correlation_id()
        # An earlier request may have left check notes undrained: start
        # the audit pending-check buffer from a clean slate for this one.
        obs_audit.discard_pending()
        logger.info(
            "%s: reserve %s -> %s rate=%.1f Mb/s user=%s",
            correlation_id, request.source_domain,
            request.destination_domain, request.rate_mbps, user.dn,
        )
        att = _Attempt(
            user=str(user.dn), at_time=self.clock(),
            outcome=SignallingOutcome(
                granted=False, correlation_id=correlation_id
            ),
            rate_mbps=request.rate_mbps,
        )
        outcome = att.outcome
        with obs_events.correlation_scope(correlation_id):
            obs_spans.open_span(
                "reserve", user=user.dn, source=request.source_domain,
                destination=request.destination_domain,
                rate_mbps=request.rate_mbps,
            )
            self._signal(
                att, user, request, assertions=assertions,
                restrictions=restrictions, deadline_s=deadline_s,
            )
            obs_spans.close_span(
                "ok" if outcome.granted else "denied",
                granted=outcome.granted, sim_latency_s=outcome.latency_s,
                messages=outcome.messages,
            )
            # Still inside the scope: the verdict is this request's.
            self._report_outcome(user, request, outcome)
        return outcome

    def _report_outcome(
        self, user: UserAgent, request: ReservationRequest,
        outcome: SignallingOutcome,
    ) -> None:
        """The terminal decision of one finished attempt — what the
        source domain told the user — and its log line.  The ledger
        record drains any checks still pending (e.g. the destination's
        §6.5 delegation verification)."""
        decisions.record(
            "outcome" if outcome.granted else "outcome_denied",
            at_time=self.clock(),
            domain=outcome.denial_domain or "",
            user=str(user.dn),
            granted=outcome.granted,
            reason=outcome.denial_reason or "",
            rate_mbps=request.rate_mbps,
            window=(request.start, request.end),
            measures={
                "messages": outcome.messages, "bytes": outcome.bytes,
                "latency_s": outcome.latency_s,
            },
            path=">".join(outcome.path),
            messages=outcome.messages,
            latency_s=f"{outcome.latency_s:.6f}",
        )
        if outcome.granted:
            logger.info(
                "%s: granted along %s (latency %.1f ms, %d messages)",
                outcome.correlation_id, " -> ".join(outcome.path),
                outcome.latency_s * 1e3, outcome.messages,
            )
        else:
            # A denial is a decision like a grant: the ledger records it,
            # and it is logged at the same level.
            logger.info(
                "%s: denied by %s: %s", outcome.correlation_id,
                outcome.denial_domain, outcome.denial_reason,
            )

    def _signal(
        self,
        att: _Attempt,
        user: UserAgent,
        request: ReservationRequest,
        *,
        assertions: Sequence[SignedAssertion],
        restrictions: tuple[str, ...],
        deadline_s: float | None,
    ) -> None:
        """Route, prepare ``RAR_U``, then carry it from broker to broker:
        every hop runs the same receive → decide → forward step, and the
        reply walks back over the hops the request opened."""
        outcome = att.outcome
        path = self.domain_path(request.source_domain, request.destination_domain)
        outcome.path = tuple(path)
        obs_spans.phase("route", hops=len(path))

        # User-side preparation: channel setup, capability delegation to
        # the source BB, and the signing of RAR_U itself.
        source_bb = self._broker(path[0])
        channel = self.channels.connect(user, source_bb, at_time=att.at_time)
        capability_certs = user.delegate_capabilities_to(
            source_bb.dn, channel.peer_certificate(user.dn).public_key,
            restrictions=restrictions,
        )
        if deadline_s is not None:
            att.deadline = Deadline(att.at_time + deadline_s)
        rar = make_user_rar(
            request=request,
            source_bb=source_bb.dn,
            capability_certs=capability_certs,
            assertions=tuple(assertions) + tuple(user.assertions),
            user=user.dn,
            user_key=user.keypair.private,
            deadline=att.deadline.expires_at if att.deadline else None,
            traceparent=obs_spans.traceparent(),
        )
        obs_spans.phase("prepare", delegations=len(capability_certs))

        try:
            hop, received = self._submit(att, channel, user.dn, rar)
            while True:
                verified = self._receive(att, hop, received)
                admit, chains = self._decide(att, hop, verified)
                if hop.downstream is None:
                    self._finish_at_destination(att, hop, verified, chains)
                    break
                hop, received = self._forward(att, hop, verified, admit, chains)
            outcome.approval = self._reply(att, None)
            outcome.granted = True
            att.granted.clear()
        except _Refused as refusal:
            denial = self._deny(att, refusal)
            # Release what was granted on the partial path, then tell
            # the user — when a live broker could sign the denial.
            self._release_granted(att, f"denied by {refusal.domain}")
            if denial is not None:
                self._reply(att, denial)
            outcome.denial_domain = refusal.domain
            outcome.denial_reason = refusal.reason
        finally:
            # Whatever aborted the legs above — an injected crash between
            # two admissions, an unexpected bug — admitted capacity on the
            # partial path must never leak.  The normal denial/approval
            # paths consume ``att.granted`` themselves, so this only
            # fires on abnormal exits.
            if att.granted:
                self._release_granted(att, "signalling aborted")

    # -- the per-hop step: receive -> decide -> forward ------------------------------

    def _submit(
        self, att: _Attempt, channel: SecureChannel,
        sender: DistinguishedName, rar: SignedEnvelope,
    ) -> tuple[_Hop, object]:
        """The user's agent hands ``RAR_U`` to the source broker."""
        try:
            received = self._deliver(
                att, channel, sender, rar,
                deadline=att.deadline, what="submit RAR_U",
            )
        except _DELIVERY_FAILURES as exc:
            # Nobody past the user was reached: nobody signs this one.
            raise _Refused(
                att.outcome.path[0], f"source broker unreachable: {exc}", exc,
                phase="submit",
            ) from exc
        obs_spans.phase("submit", sim_latency_s=channel.latency_s)
        return self._open_hop(att, channel, sender, rar), received

    def _open_hop(
        self, att: _Attempt, channel: SecureChannel,
        sender: DistinguishedName, sent: SignedEnvelope,
    ) -> _Hop:
        """Start the next broker's turn: its context, the recovery note
        for its decision record, its processing delay, its ``hop`` span
        (under the span that sent the request, the one the envelope's
        trace context names — as each signature layer wraps the
        upstream RAR)."""
        outcome, path, index = att.outcome, att.outcome.path, len(att.walked)
        bb = self._broker(path[index])
        upstream = path[index - 1] if index > 0 else None
        if obs_audit.get_ledger() is not None:
            # Recovery context for this hop's decision record: the
            # inbound link's breaker state and the end-to-end budget
            # left when the hop started working.
            obs_audit.note_recovery(
                breaker_state=self._breaker_for(channel.link).state,
                deadline_remaining_s=(
                    att.deadline.expires_at - (att.at_time + outcome.latency_s)
                    if att.deadline is not None else None
                ),
            )
        outcome.latency_s += PROCESSING_DELAY_S
        hop = _Hop(
            domain=path[index], bb=bb, upstream=upstream,
            downstream=path[index + 1] if index + 1 < len(path) else None,
            peer=upstream if upstream is not None else att.user,
            peer_kind="domain" if upstream is not None else "user",
            peer_certificate=channel.peer_certificate(bb.dn),
            resend=(channel, sender, sent),
        )
        obs_spans.open_span("hop", domain=hop.domain, bb=bb.dn)
        att.walked.append((hop, channel))
        return hop

    def _receive(
        self, att: _Attempt, hop: _Hop, received: object
    ) -> VerifiedRAR:
        """Gate → decode → verify: what a broker does with every inbound
        request, cheapest stage first.  Raises :class:`_Refused`.

        Verification recovers where it can: a tampered copy triggers a
        bounded retransmission request upstream, a repository outage
        backs off and retries (:meth:`_verify`); genuine trust failures
        deny immediately.  The ``verify`` phase runs from the hop's
        start, so it also owns the hop's opening bookkeeping.
        """
        self._gate(att, hop, received)
        domain = hop.domain
        what = f"verification at {domain}"
        work = WORK_DECODE
        attempt = 0
        while True:
            attempt += 1
            try:
                rar = hop.rar = self._decode_received(
                    received, what=f"ingress at {domain}"
                )
                if hop.peer_certificate is None:
                    # Nothing is ever accepted without verification.
                    raise TrustError(
                        f"{domain}: the sender presented no certificate "
                        "to verify the message against"
                    )
                work = WORK_VERIFY
                verified = self._verify(att, hop, rar, hop.peer_certificate, what)
            except TamperedMessageError as exc:
                # Integrity failure on the received copy: ask the
                # upstream sender to retransmit the original.
                if attempt >= MAX_ATTEMPTS or hop.resend is None:
                    raise self._untrusted(hop, exc, work) from exc
                channel, sender, sent = hop.resend
                self._back_off(
                    att, attempt, what=what, target=channel.link,
                    reason=str(exc),
                )
                try:
                    received = self._deliver(
                        att, channel, sender, sent, deadline=att.deadline,
                        what=f"retransmission to {domain}",
                    )
                except _DELIVERY_FAILURES as lost:
                    raise self._untrusted(hop, lost, work) from lost
            except (SignallingError, CertificateError, EncodingError) as exc:
                # EncodingError: a malformed inner layer surfaced
                # during verification — denied like any other trust
                # failure instead of escaping as a raw decode error.
                raise self._untrusted(hop, exc, work) from exc
            else:
                obs_spans.phase(
                    "verify", depth=verified.depth, signer=verified.user,
                )
                return verified

    @staticmethod
    def _untrusted(hop: _Hop, failure: ReproError, work: float) -> _Refused:
        """The refusal for a message that failed decode or verification.
        Raised from inside the handler that caught *failure*: a local
        holding it past the handler would tie the frame into a reference
        cycle with the traceback — one per hostile frame."""
        return _Refused(
            hop.domain,
            str(failure) if isinstance(failure, _DELIVERY_FAILURES)
            else f"trust verification failed: {failure}",
            failure, signer=hop.bb, phase="verify", work=work,
        )

    def _gate(self, att: _Attempt, hop: _Hop, received: object) -> None:
        """The admission-plane defense gate, BEFORE any decode or
        signature work: the per-peer token bucket, the replay guard
        (keyed on the digest of the message as it arrived), and the
        overload shed all run for the cost of a few dict operations, so
        abusive signalling never reaches the expensive stages."""
        defense = hop.bb.defense
        if defense is None:
            return
        digest = None
        if isinstance(received, (bytes, bytearray, memoryview)):
            digest = _envelope_digest(bytes(received))
        elif isinstance(received, SignedEnvelope):
            digest = _envelope_digest(received.cbe_bytes())
        try:
            defense.admit_signal(
                peer=hop.peer, peer_kind=hop.peer_kind,
                now=att.at_time + att.outcome.latency_s,
                operation=att.operation, envelope_digest=digest,
            )
        except DefenseError as exc:
            raise _Refused(
                hop.domain, str(exc), exc, signer=hop.bb, phase="defense",
                work=WORK_GATE,
            ) from exc

    def _verify(
        self, att: _Attempt, hop: _Hop, rar: SignedEnvelope,
        peer_certificate: Certificate, what: str,
    ) -> VerifiedRAR:
        """Transitive-trust verification of *rar* at *hop*, within the
        deadline the envelope itself carries, retrying through
        repository outages (§6.4 alternative 2 pays one modelled lookup
        latency per signer key it resolves)."""
        # Honor the end-to-end deadline as *carried in the RAR* — each
        # hop bounds its work by the budget the envelope states, not by
        # out-of-band knowledge.
        carried_deadline = _carried_deadline(rar)
        if carried_deadline is not None:
            att.deadline = Deadline(carried_deadline)
        bb, repository = hop.bb, self.repository
        if repository is None:
            return self._call_with_retries(
                lambda: verify_rar(
                    rar, verifier=bb.dn, peer_certificate=peer_certificate,
                    truststore=bb.truststore, at_time=att.at_time,
                ),
                att, what=what, target="",
            )
        try:
            verified, lookups = self._call_with_retries(
                lambda: verify_rar_with_repository(
                    rar, verifier=bb.dn, peer_certificate=peer_certificate,
                    truststore=bb.truststore, repository=repository,
                    at_time=att.at_time,
                ),
                att, what=what, target=str(repository.name),
            )
        except RetryExhaustedError as exc:
            raise _outage(exc) from exc
        att.outcome.repository_lookups += lookups
        att.outcome.latency_s += lookups * repository.lookup_latency_s
        return verified

    def _decide(
        self, att: _Attempt, hop: _Hop, verified: VerifiedRAR
    ) -> tuple[AdmitOutcome, tuple[CheckedChain, ...]]:
        """Credentials → path assertions → admit → cost ceiling: the
        local decision pipeline, with recovery.  The policy server and
        this hop's own broker may be down transiently; a hop whose
        broker stays down cannot even sign a denial, so the upstream hop
        synthesizes one.  Raises :class:`_Refused`."""
        bb, domain = hop.bb, hop.domain
        try:
            info = self._call_with_retries(
                lambda: bb.policy_server.verify_credentials(
                    user=verified.user,
                    assertions=verified.assertions,
                    capability_certs=verified.capability_chain,
                    at_time=att.at_time,
                ),
                att, what=f"credential verification at {domain}", target=domain,
            )
            path_attrs = self._verified_path_assertions(
                verified, hop.peer_certificate, att.at_time
            )
            local_request = (
                verified.request.with_attributes(**path_attrs)
                if path_attrs
                else verified.request
            )
            obs_spans.phase(
                "policy", chains=len(info.capability_chains),
                rejected=len(info.rejected),
            )
            admit = self._call_with_retries(
                lambda: bb.admit(
                    local_request, info, at_time=att.at_time,
                    upstream=hop.upstream, downstream=hop.downstream,
                ),
                att, what=f"admission at {domain}", target=domain,
            )
        except _DELIVERY_FAILURES as exc:
            if not (isinstance(exc, RetryExhaustedError)
                    and isinstance(exc.__cause__, BrokerUnavailableError)):
                # Policy server / repository stayed down, or the
                # deadline passed: this hop is alive and denies.
                raise _Refused(
                    domain, str(exc), _outage(exc), signer=bb,
                ) from exc
            # This hop's BB is gone: it cannot sign anything.  The
            # upstream hop detects the silence and synthesizes the
            # denial (the user-facing report when it IS the source).
            reason = str(exc)
            logger.warning(
                "%s: broker unavailable, upstream reports: %s", domain, reason
            )
            obs_spans.close_span("failed", error=reason)
            att.walked.pop()
            raise _Refused(
                domain, reason, ReasonCode.BROKER_UNREACHABLE,
                signer=att.walked[-1][0].bb if att.walked else None,
            ) from exc
        handle = admit.reservation.handle
        # The next phase (delegation at the destination, forward
        # everywhere else) owns metering and cost negotiation.
        obs_spans.phase("admission", granted=admit.granted, handle=handle)
        att.outcome.handles[domain] = handle
        if not admit.granted:
            # The broker's admission pipeline recorded its own denial.
            raise _Refused(domain, admit.reason, None, signer=bb)
        att.granted.append((bb, handle))
        self._charge(att, hop, verified.request, handle)
        return admit, info.capability_chains

    def _charge(
        self, att: _Attempt, hop: _Hop, request: ReservationRequest,
        handle: str,
    ) -> None:
        """Cost negotiation (§6.1: the request carries "a cost that the
        user is willing to accept"): this domain's tariff — its ingress
        SLA price for transit/destination domains — joins the running
        total; the request dies where the ceiling is first exceeded."""
        bb = hop.bb
        sla = bb.slas_in.get(hop.upstream) if hop.upstream is not None else None
        if sla is not None:
            usage_mbps_hours = request.rate_mbps * request.duration / 3600.0
            att.cost += sla.price_per_mbps_hour * usage_mbps_hours
        if att.cost > request.cost_ceiling:
            bb.cancel(
                handle, reason="cost ceiling exceeded",
                reason_code=ReasonCode.UNWOUND,
            )
            att.granted.pop()
            raise _Refused(
                hop.domain,
                f"cost ceiling exceeded: path costs {att.cost:.2f} so far, "
                f"user accepts at most {request.cost_ceiling:.2f}",
                ReasonCode.COST_CEILING, signer=bb,
            )
        att.outcome.cost = att.cost

    def _finish_at_destination(
        self, att: _Attempt, hop: _Hop, verified: VerifiedRAR,
        chains: Sequence[CheckedChain],
    ) -> None:
        """Destination domain, the final holder: of the chains its policy
        server verified (§6.5 checks 1–4 and 6), it keeps those that end
        at its own key.  That is check 5 here: the mutual channel
        handshake proved this BB holds the key, and the upstream hop
        delegated to exactly that handshake key (docs/PROTOCOL.md §4)."""
        bb, outcome = hop.bb, att.outcome
        outcome.final_rar = hop.rar
        outcome.verified = verified
        results = [
            checked.result for checked in chains
            if checked.result is not None
            and checked.chain[-1].public_key == bb.keypair.public
        ]
        outcome.delegations = tuple(results)
        outcome.delegation = results[0] if results else None
        obs_spans.phase("delegation", chains=len(chains), verified=len(results))

    def _forward(
        self, att: _Attempt, hop: _Hop, verified: VerifiedRAR,
        admit: AdmitOutcome, chains: Sequence[CheckedChain],
    ) -> tuple[_Hop, object]:
        """Wrap and send downstream: delegate every capability chain this
        BB holds and its policy server accepted, introduce the upstream
        certificate, sign
        ``RAR_{N+1}`` and deliver it.  Returns the next hop's context
        and what arrived there.  Raises :class:`_Refused`."""
        bb, downstream, rar = hop.bb, hop.downstream, hop.rar
        assert downstream is not None and rar is not None
        next_bb = self._broker(downstream)
        channel = self.channels.connect(bb, next_bb, at_time=att.at_time)
        next_public_key = channel.peer_certificate(bb.dn).public_key
        # One proxy credential per accepted delegation chain whose tip
        # names this broker as subject (delegated by the upstream hop); a
        # user with several community credentials yields several chains.
        # A chain this hop's policy server rejected is not extended.
        forwarded_caps: tuple[Certificate, ...] = tuple(
            delegate(
                ProxyCredential(checked.chain[-1], bb.keypair.private),
                delegate_subject=next_bb.dn,
                delegate_public_key=next_public_key,
            )
            for checked in chains
            if checked.result is not None and checked.chain[-1].subject == bb.dn
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
                None if self.repository is not None else hop.peer_certificate
            ),
            downstream=next_bb.dn,
            capability_certs=forwarded_caps,
            assertions=added_assertions,
            bb=bb.dn,
            bb_key=bb.keypair.private,
            # Rewrite the trace context: the downstream hop's spans
            # hang under THIS hop's span, mirroring how this layer
            # wraps the upstream RAR.
            traceparent=obs_spans.traceparent(),
        )
        try:
            received = self._deliver(
                att, channel, bb.dn, forward_rar, deadline=att.deadline,
                what=f"forward to {downstream}",
            )
        except _DELIVERY_FAILURES as exc:
            # The user hears about the silent domain; this hop, the
            # last one alive, signs for it.
            raise _Refused(
                downstream, f"domain {downstream} unreachable: {exc}", exc,
                signer=bb,
            ) from exc
        obs_spans.phase(
            "forward", downstream=downstream, sim_latency_s=channel.latency_s,
        )
        return self._open_hop(att, channel, bb.dn, forward_rar), received

    # -- the reply leg and the denial writer -----------------------------------------

    def _reply(
        self, att: _Attempt, denial: SignedEnvelope | None
    ) -> SignedEnvelope | None:
        """Walk the reply back upstream over the channels the request
        walked, closing each hop's span as it passes; returns the reply
        as the user received it.

        A signed *denial* is relayed as received, under no deadline; a
        hop that stays unreachable loses it — capacity is already safe,
        the user sees a timeout.  ``None`` sends the approval, each
        broker wrapping the downstream one in its own signed layer,
        under the request's deadline.  Without it the user holds no
        proof and no handles, so an undeliverable approval releases
        every admission and raises :class:`_Refused` (deny, don't leak).
        """
        what = "denial reply" if denial is not None else "approval reply"
        handles = att.outcome.handles
        denier = denial[F_DOMAIN] if denial is not None else None
        reply = denial
        for index in range(len(att.walked) - 1, -1, -1):
            hop, channel = att.walked[index]
            if denial is None or reply is None:  # (None only when approving)
                reply = make_approval(
                    handle=handles[hop.domain], domain=hop.domain,
                    inner=reply, bb=hop.bb.dn, bb_key=hop.bb.keypair.private,
                )
            try:
                reply = self._decode_received(
                    self._deliver(
                        att, channel, hop.bb.dn, reply, what=what,
                        deadline=att.deadline if denial is None else None,
                    ),
                    what=what,
                )
            except SignallingError as exc:
                error = str(exc)
                obs_spans.phase("reply", "error", error=error)
                # This hop and every one it passed back through.
                for _ in range(index + 1):
                    obs_spans.close_span("released")
                if denial is not None:
                    logger.warning(
                        "denial by %s lost on link %s: %s",
                        denier, channel.link, error,
                    )
                    return None
                self._release_granted(
                    att, f"approval undeliverable at {hop.domain}"
                )
                raise _Refused(
                    hop.domain, f"approval could not be delivered: {error}",
                    exc,
                ) from exc
            obs_spans.phase("reply", sim_latency_s=channel.latency_s)
            if denial is None:
                obs_spans.close_span(handle=handles[hop.domain])
            else:
                obs_spans.close_span(
                    "denied" if hop.domain == denier else "released"
                )
        return reply

    def _deny(self, att: _Attempt, refusal: _Refused) -> SignedEnvelope | None:
        """The one place a refusal is written down: the failed phase of
        the stage that refused, the ``deny`` decision with its reason
        code and the signed denial, when a live broker is there to sign
        it."""
        domain, reason, code = refusal.domain, refusal.reason, refusal.code
        logger.info("%s: refused: %s", domain, reason)
        if refusal.phase is not None:
            obs_spans.phase(refusal.phase, "error", error=reason)
        if code is not None:
            decisions.record(
                "deny", at_time=att.at_time, domain=domain, user=att.user,
                reason=reason, reason_code=code, rate_mbps=att.rate_mbps,
            )
        signer = refusal.signer
        if signer is None or not att.walked:
            # Nobody alive to sign — or, at ingress, no channel the
            # denial could travel back on.
            return None
        return make_denial(
            domain=domain, reason=reason,
            bb=signer.dn, bb_key=signer.keypair.private,
        )

    # -- ingress processing (the same receive step, for unsolicited traffic) ------------

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
        the receiving side needs an explicit entry point.  It runs
        :meth:`_receive`, the very step every hop of :meth:`reserve`
        runs, and reports the cost of the stage the message reached:

        1. the defense gate (per-peer token bucket, replay guard, shed) —
           :data:`WORK_GATE`;
        2. structural decode into a signed envelope — :data:`WORK_DECODE`
           (a decodable message without a *peer_certificate* stops
           here too: refused, never accepted unverified);
        3. transitive-trust verification — :data:`WORK_VERIFY`.

        Returns an :class:`IngressReport`; never raises for a rejected
        message.  ``report.work_units`` is what the message actually cost
        this broker, which the survivability harness integrates into the
        victim's modelled work queue — with defenses off every junk or
        replayed envelope costs the full verification walk, with defenses
        on it costs a dict lookup.
        """
        att = _Attempt(
            user=peer, at_time=at_time if at_time is not None else self.clock(),
            outcome=SignallingOutcome(granted=False), operation=operation,
        )
        # No inbound channel: nobody upstream to ask for a retransmission.
        hop = _Hop(
            domain=domain, bb=self._broker(domain), upstream=None,
            downstream=None, peer=peer, peer_kind=peer_kind,
            peer_certificate=peer_certificate,
        )
        # Like reserve(), start from a clean audit check buffer.
        obs_audit.discard_pending()
        accepted, work_units, reason, code = True, WORK_VERIFY, "", None
        try:
            self._receive(att, hop, message)
        except _Refused as refusal:
            self._deny(att, refusal)
            # Copied out: holding the exception past this handler would
            # tie the frame into a reference cycle, one per hostile frame.
            accepted, work_units = False, refusal.work
            reason, code = refusal.reason, refusal.code
        else:
            # Accepted: no record drains the check notes, and they must
            # not attach to the next denial.
            obs_audit.discard_pending()
        if work_units == WORK_VERIFY:
            self.ingress_verifications += 1
        # Trace/deadline metadata of the outer layer, when it decoded
        # (scalars only).
        rar = hop.rar
        traceparent = rar.get(F_TRACEPARENT) if rar is not None else None
        return IngressReport(
            accepted=accepted,
            work_units=work_units,
            verified=work_units == WORK_VERIFY,
            reason=reason,
            reason_code=code.value if code is not None else "",
            traceparent=traceparent if isinstance(traceparent, str) else None,
            deadline=_carried_deadline(rar) if rar is not None else None,
        )

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
        """Release a granted end-to-end reservation in every domain.  A
        denied outcome holds nothing to cancel: its partial path was
        unwound while it was signalled."""
        if not outcome.granted:
            raise SignallingError("cannot cancel a denied reservation")
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
        old_request = outcome.verified.request
        new_request = replace(old_request, rate_mbps=rate_mbps)
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
