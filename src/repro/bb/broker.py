"""The bandwidth broker (BB).

Paper §2: "A BB provides admission control and configures the edge
routers of a single administrative network domain."  This class is the
*local* half of a BB — policy consultation, SLA conformance, capacity
booking, reservation lifecycle, and edge-router (re)configuration.  The
*inter-domain* half — signed envelopes, channels, forwarding — lives in
:mod:`repro.core` and drives brokers through the methods here.

The four source-domain steps of §6.1 map onto this class as:

1. "contacts the policy server to verify [...] and that the user is
   authorized" — :meth:`decide_policy` (via the policy server);
2. "receives additional domain-wide information from the policy server"
   — the modifications on the returned decision;
3. "decides whether or not the request can be satisfied within the local
   domain, based both on the traffic profile and the policy constraints"
   — :meth:`admit`, which books capacity;
4. "forwards the request to the next BB" — the protocol layer's job.
"""

from __future__ import annotations

import logging
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bb.defense import DomainDefense
    from repro.faults.injector import FaultInjector

from repro.bb.admission import AdmissionController
from repro.bb.policyserver import PolicyServer, VerifiedInfo
from repro.bb.reservations import (
    Reservation,
    ReservationRequest,
    ReservationState,
    ReservationTable,
)
from repro.bb.sla import ServiceLevelAgreement
from repro.crypto.dn import DN
from repro.crypto.keys import KeyPair, get_scheme
from repro.crypto.truststore import TrustStore
from repro.crypto.x509 import Certificate
from repro.errors import (
    AdmissionError,
    PolicyEvaluationError,
    QuotaExceededError,
    SLAError,
    SLAViolationError,
)
from repro.obs import decisions
from repro.obs import events as obs_events
from repro.obs import spans as obs_spans
from repro.obs.events import ReasonCode
from repro.policy.engine import Decision, PolicyDecision

__all__ = ["EdgeConfigurator", "BandwidthBroker", "AdmitOutcome"]

logger = logging.getLogger(__name__)

#: Resource-name conventions inside a broker's admission controller.
INTRA = "intra"


def ingress_resource(upstream: str) -> str:
    return f"ingress:{upstream}"


def egress_resource(downstream: str) -> str:
    return f"egress:{downstream}"


class EdgeConfigurator(Protocol):
    """How a broker touches its domain's edge routers.

    The testbed implements this against the DiffServ
    :class:`~repro.net.diffserv.NetworkModel`; unit tests use stubs.
    """

    def provision_flow(
        self, domain: str, reservation: Reservation
    ) -> None:  # pragma: no cover - protocol
        """Install per-flow classification for a claimed source-domain
        reservation."""
        ...

    def teardown_flow(
        self, domain: str, reservation: Reservation
    ) -> None:  # pragma: no cover - protocol
        ...

    def provision_ingress(
        self, domain: str, upstream: str, service_class, total_rate_mbps: float
    ) -> None:  # pragma: no cover - protocol
        """Set the aggregate policer for traffic arriving from *upstream*."""
        ...


@dataclass(frozen=True)
class AdmitOutcome:
    """Result of a local admission attempt."""

    granted: bool
    reservation: Reservation
    decision: PolicyDecision | None = None
    reason: str = ""


class BandwidthBroker:
    """One domain's bandwidth broker (local decision logic)."""

    def __init__(
        self,
        domain: str,
        *,
        policy_server: PolicyServer,
        admission: AdmissionController,
        keypair: KeyPair | None = None,
        certificate: Certificate | None = None,
        truststore: TrustStore | None = None,
        configurator: EdgeConfigurator | None = None,
        scheme: str = "rsa",
        soft_state_ttl_s: float | None = None,
    ):
        self.domain = domain
        self.dn = DN.make("Grid", domain, f"BB-{domain}")
        if keypair is None:
            keypair = get_scheme(scheme).generate(
                # crc32, not hash(): str hashing is salted per process and would
                # make default keygen nondeterministic across runs (REP108).
                random.Random(zlib.crc32(domain.encode()))
            )
        self.keypair = keypair
        self.certificate = certificate
        self.truststore = truststore if truststore is not None else TrustStore()
        self.policy_server = policy_server
        self.admission = admission
        self.reservations = ReservationTable(domain)
        self.configurator = configurator
        #: SLAs keyed by peer domain: traffic *from* peer (we are downstream).
        self.slas_in: dict[str, ServiceLevelAgreement] = {}
        #: SLAs keyed by peer domain: traffic *to* peer (we are upstream).
        self.slas_out: dict[str, ServiceLevelAgreement] = {}
        #: Validators for linked reservations of other resource kinds.
        self._linked_validators: dict[str, object] = {}
        #: RSVP-style soft-state lease length.  When set, every grant
        #: carries an ``expires_at`` and must be refreshed (claim and
        #: :meth:`refresh` do) or :meth:`sweep_soft_state` reclaims it.
        self.soft_state_ttl_s = soft_state_ttl_s
        #: Optional deterministic fault injector (crash windows).
        self.injector: FaultInjector | None = None
        #: Optional admission-plane defenses (rate limits live in the
        #: signalling engine; this broker consults the quota half).
        self.defense: DomainDefense | None = None

    # -- peering -----------------------------------------------------------------

    def register_sla(self, sla: ServiceLevelAgreement) -> None:
        """Register a contract this domain participates in (either side)."""
        if sla.downstream_domain == self.domain:
            self.slas_in[sla.upstream_domain] = sla
        elif sla.upstream_domain == self.domain:
            self.slas_out[sla.downstream_domain] = sla
        else:
            raise SLAError(
                f"SLA {sla.upstream_domain}->{sla.downstream_domain} does not "
                f"involve domain {self.domain}"
            )

    def peer_domains(self) -> frozenset[str]:
        return frozenset(self.slas_in) | frozenset(self.slas_out)

    # -- the local decision pipeline -------------------------------------------------

    def check_sla(
        self,
        request: ReservationRequest,
        *,
        upstream: str | None,
        downstream: str | None,
    ) -> None:
        """Conformance of the traffic profile with the relevant SLAs.

        An intermediate/destination BB "checks whether the requested
        traffic profile conforms to the related SLA" (§6.2) — that is the
        upstream contract; a forwarding BB must also hold an SLA toward
        the downstream domain.
        """
        if upstream is not None:
            sla = self.slas_in.get(upstream)
            if sla is None:
                raise SLAViolationError(
                    f"{self.domain}: no SLA with upstream domain {upstream!r}"
                )
            sla.check_profile(request.service_class, request.rate_mbps,
                              request.burst_bits)
        if downstream is not None:
            sla = self.slas_out.get(downstream)
            if sla is None:
                raise SLAViolationError(
                    f"{self.domain}: no SLA with downstream domain {downstream!r}"
                )
            sla.check_profile(request.service_class, request.rate_mbps,
                              request.burst_bits)

    def _resources_for(
        self, upstream: str | None, downstream: str | None
    ) -> list[str]:
        resources = []
        if upstream is not None:
            resources.append(ingress_resource(upstream))
        resources.append(INTRA)
        if downstream is not None:
            resources.append(egress_resource(downstream))
        return [r for r in resources if r in self.admission.resources()]

    def available_bandwidth(
        self,
        request: ReservationRequest,
        *,
        upstream: str | None = None,
        downstream: str | None = None,
    ) -> float:
        """Bottleneck spare capacity for this request's interval and path
        (feeds the policy language's ``Avail_BW`` variable)."""
        resources = self._resources_for(upstream, downstream)
        if not resources:
            return float("inf")
        return self.admission.available(resources, request.start, request.end)

    def decide_policy(
        self,
        request: ReservationRequest,
        verified: VerifiedInfo,
        *,
        at_time: float = 0.0,
        upstream: str | None = None,
        downstream: str | None = None,
    ) -> PolicyDecision:
        return self.policy_server.decide(
            request,
            verified,
            at_time=at_time,
            available_bandwidth_mbps=self.available_bandwidth(
                request, upstream=upstream, downstream=downstream
            ),
            linked_validator=self._linked_validator,
        )

    def _linked_validator(self, kind: str, handle: str) -> bool:
        """Validate linked reservations.  Network handles are checked in
        our own table; other resource kinds are delegated to registered
        validators (the GARA layer wires these in)."""
        validator = self._linked_validators.get(kind)
        if validator is not None:
            return bool(validator(handle))
        return self.reservations.is_valid(handle)

    def register_linked_validator(self, kind: str, fn) -> None:
        self._linked_validators[kind] = fn

    def _check_up(self) -> None:
        """Deliver a pending injected crash before touching state — a
        crashed BB answers nothing, so no operation may proceed."""
        if self.injector is not None:
            self.injector.broker_op(self.domain)

    def _audit(self, kind: str, resv: Reservation, *, reason: str = "",
               at_time: float = 0.0, reason_code: str | ReasonCode = "",
               decision: PolicyDecision | None = None) -> None:
        """Write one decision about *resv* down — *kind* is a
        :data:`repro.obs.decisions.DECISIONS` key.  The ledger record
        is the operator-facing trail the paper's accounting discussion
        presumes ("whenever a domain actually bills the requesting
        entity ...")."""
        decisions.record(
            kind, at_time=at_time, domain=self.domain,
            user=str(resv.owner) if resv.owner else "",
            handle=resv.handle, reason=reason, reason_code=reason_code,
            # The admission-time ID, so decisions taken outside the
            # request scope (the soft-state sweep) still join the
            # originating trace.
            correlation_id=resv.correlation_id,
            granted=kind == "admit",
            rate_mbps=resv.request.rate_mbps,
            window=(resv.request.start, resv.request.end),
            upstream=resv.upstream, downstream=resv.downstream,
            decision=decision,
        )
        if kind == "admit_denied":
            logger.info("%s: denied %s: %s", self.domain, resv.handle, reason)
        else:
            logger.debug("%s: %s %s", self.domain, kind, resv.handle)

    def admit(
        self,
        request: ReservationRequest,
        verified: VerifiedInfo,
        *,
        at_time: float = 0.0,
        upstream: str | None = None,
        downstream: str | None = None,
    ) -> AdmitOutcome:
        """The full local pipeline: SLA check, policy, capacity booking.

        Returns an :class:`AdmitOutcome`; never raises for ordinary
        denials (the signalling layer propagates the reason upstream,
        §6.1: "the event is propagated upstream to inform the user of the
        reason for the denial").  A *transient* failure mid-admission
        (policy server down, injected crash) does raise — after first
        cancelling the PENDING record, so a retried admission never
        leaves a stuck reservation behind.
        """
        self._check_up()
        resv = self.reservations.create(request, verified.user, now=at_time)
        resv.upstream = upstream
        resv.downstream = downstream
        resv.correlation_id = obs_events.current_correlation_id() or ""
        try:
            return self._admit_pipeline(
                resv, request, verified, at_time=at_time,
                upstream=upstream, downstream=downstream,
            )
        finally:
            # Every return leaves the row GRANTED or DENIED; only a
            # raise leaves it PENDING.
            if resv.state is ReservationState.PENDING:
                self.reservations.transition(
                    resv.handle, ReservationState.CANCELLED
                )

    def _admit_pipeline(
        self,
        resv: Reservation,
        request: ReservationRequest,
        verified: VerifiedInfo,
        *,
        at_time: float,
        upstream: str | None,
        downstream: str | None,
    ) -> AdmitOutcome:
        # Reservation quotas run first: they are the cheapest check and
        # the one a flooding persona hits, so a quota'd user never costs
        # this broker an SLA/policy/capacity evaluation.
        if self.defense is not None:
            user_count, ingress_count = self._live_counts(resv)
            try:
                self.defense.check_quota(
                    user=str(resv.owner) if resv.owner else "",
                    upstream=upstream,
                    user_count=user_count,
                    ingress_count=ingress_count,
                )
            except QuotaExceededError as exc:
                return self._refuse(
                    resv, str(exc), ReasonCode.QUOTA_EXCEEDED, at_time
                )

        try:
            self.check_sla(request, upstream=upstream, downstream=downstream)
        except SLAViolationError as exc:
            return self._refuse(
                resv, str(exc), ReasonCode.SLA_VIOLATION, at_time
            )

        try:
            decision = self.decide_policy(
                request, verified, at_time=at_time, upstream=upstream,
                downstream=downstream,
            )
        except PolicyEvaluationError as exc:
            # A policy this domain cannot evaluate (an unknown predicate
            # or variable) grants nothing: fail closed, naming the ``If``
            # that could not be evaluated.
            fired = exc.rules_fired
            failing = fired[-1].partition("?")[0] if fired else ""
            return self._refuse(
                resv, f"policy could not be evaluated: {exc}",
                ReasonCode.POLICY_DENIED, at_time,
                PolicyDecision(Decision.DENY, matched_rule=failing, rules_fired=fired),
            )
        if not decision.granted:
            return self._refuse(
                resv, decision.reason, ReasonCode.POLICY_DENIED, at_time,
                decision,
            )

        resources = self._resources_for(upstream, downstream)
        if resources:
            try:
                bookings = self.admission.book_all(
                    resources, request.start, request.end, request.rate_mbps,
                    tag=resv.handle,
                )
            except AdmissionError as exc:
                return self._refuse(
                    resv, str(exc), ReasonCode.CAPACITY_EXCEEDED, at_time,
                    decision,
                )
            resv.bookings = bookings
        if self.soft_state_ttl_s is not None:
            resv.expires_at = at_time + self.soft_state_ttl_s
        self.reservations.transition(resv.handle, ReservationState.GRANTED)
        self._audit("admit", resv, reason=decision.reason,
                    at_time=at_time, decision=decision)
        return AdmitOutcome(True, resv, decision=decision, reason=decision.reason)

    def _refuse(
        self,
        resv: Reservation,
        reason: str,
        code: ReasonCode,
        at_time: float,
        decision: PolicyDecision | None = None,
    ) -> AdmitOutcome:
        """The one denial leg of :meth:`_admit_pipeline`: *decision* is
        the policy verdict when the refusal came at or after policy."""
        resv.denial_reason = reason
        self.reservations.transition(resv.handle, ReservationState.DENIED)
        self._audit("admit_denied", resv, reason=reason, at_time=at_time,
                    reason_code=code, decision=decision)
        return AdmitOutcome(False, resv, decision=decision, reason=reason)

    def _live_counts(self, resv: Reservation) -> tuple[int, int]:
        """Live (pending/granted/active) reservations held by the same
        owner and arriving over the same ingress, excluding *resv* itself
        (it was just created PENDING by :meth:`admit`)."""
        user = str(resv.owner) if resv.owner else ""
        user_count = 0
        ingress_count = 0
        for other in self.reservations.in_state(
            ReservationState.PENDING, ReservationState.GRANTED,
            ReservationState.ACTIVE,
        ):
            if other.handle == resv.handle:
                continue
            if user and str(other.owner) == user:
                user_count += 1
            if resv.upstream is not None and other.upstream == resv.upstream:
                ingress_count += 1
        return user_count, ingress_count

    # -- lifecycle ----------------------------------------------------------------------

    def claim(self, handle: str, *, at_time: float = 0.0) -> Reservation:
        """Bind a granted reservation to traffic: configure edge routers."""
        self._check_up()
        resv = self.reservations.transition(handle, ReservationState.ACTIVE)
        if self.soft_state_ttl_s is not None:
            self.reservations.refresh(
                handle, now=at_time, ttl_s=self.soft_state_ttl_s
            )
        self._audit("claim", resv, at_time=at_time)
        if self.configurator is not None:
            if resv.upstream is None:
                # We are the source domain: per-flow classification.
                self.configurator.provision_flow(self.domain, resv)
            self._refresh_ingress(resv.request.service_class)
        return resv

    def cancel(
        self,
        handle: str,
        *,
        reason: str = "",
        reason_code: str | ReasonCode = ReasonCode.USER_REQUESTED,
    ) -> Reservation:
        """Cancel a reservation.  *reason_code* distinguishes an
        operator/user cancellation (the default) from an unwind release
        balancing a downstream denial, so the audit ledger and event
        log agree on why the capacity came back."""
        self._check_up()
        resv = self.reservations.get(handle)
        was_active = resv.state is ReservationState.ACTIVE
        resv = self.reservations.transition(
            handle, ReservationState.CANCELLED
        )
        self._audit("cancel", resv, reason=reason,
                    reason_code=reason_code)
        self.admission.release_all(resv.bookings)
        if self.configurator is not None:
            if was_active and resv.upstream is None:
                self.configurator.teardown_flow(self.domain, resv)
            self._refresh_ingress(resv.request.service_class)
        return resv

    def refresh(self, handle: str, *, at_time: float = 0.0) -> Reservation:
        """Renew a reservation's soft-state lease (RSVP-style refresh).
        A no-op lease-wise when the broker runs hard state."""
        self._check_up()
        if self.soft_state_ttl_s is None:
            return self.reservations.get(handle)
        return self.reservations.refresh(
            handle, now=at_time, ttl_s=self.soft_state_ttl_s
        )

    def sweep_soft_state(self, now: float) -> tuple[Reservation, ...]:
        """Reclaim reservations whose soft-state lease lapsed: release
        their capacity bookings and deprovision.  This is the safety net
        that frees upstream admissions when a failed hop prevented the
        explicit unwind from reaching this domain.
        """
        # The sweep runs outside any request, so it gets a trace of its
        # own; each reclaimed reservation's EXPIRE event links back to
        # the originating trace via its stashed ID.
        obs_spans.open_span("sweep", trace="sweep", domain=self.domain)
        lapsed = self.reservations.sweep_expired(now)
        for resv in lapsed:
            self.admission.release_all(resv.bookings)
            if self.configurator is not None:
                if resv.upstream is None:
                    self.configurator.teardown_flow(self.domain, resv)
                self._refresh_ingress(resv.request.service_class)
            self._audit(
                "expire", resv,
                reason="soft-state lease expired", at_time=now,
                reason_code=ReasonCode.SOFT_STATE_EXPIRED,
            )
        obs_spans.close_span(reclaimed=len(lapsed))
        return lapsed

    def _refresh_ingress(self, service_class) -> None:
        """Recompute aggregate policer rates per upstream from the set of
        currently ACTIVE reservations (the BB 'configures the edge
        routers of a single administrative network domain')."""
        if self.configurator is None:
            return
        totals: dict[str, float] = {}
        for resv in self.reservations.in_state(ReservationState.ACTIVE):
            if resv.upstream is not None and resv.request.service_class == service_class:
                totals[resv.upstream] = totals.get(resv.upstream, 0.0) + resv.request.rate_mbps
        for upstream in self.slas_in:
            self.configurator.provision_ingress(
                self.domain, upstream, service_class, totals.get(upstream, 0.0)
            )

    def validate_handle(self, handle: str, *, at_time: float | None = None) -> bool:
        """Online reservation validity query (for downstream policies and
        tunnel admission)."""
        return self.reservations.is_valid(handle, at_time=at_time)
