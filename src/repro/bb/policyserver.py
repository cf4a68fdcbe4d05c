"""The policy-server entity of the architecture.

Paper §5: "We introduce an entity called a policy server that encapsulates
a BB's admission control procedures.  When a request comes in, it is
forwarded to the policy server which executes local policy and passes
back a result ('yes' or 'no') and a modified request."

The policy server owns:

* the domain's policy engine (a rule tree, typically compiled from the
  paper's policy-file syntax);
* the verification machinery that turns *claimed* authorization
  information into *verified* context: signed group assertions are
  checked against registered group servers, capability chains against
  trusted community (CAS) keys;
* the *domain-wide information* of §6.1 — attributes the domain attaches
  to a granted request before it is forwarded downstream (required group
  hints, cost offers, traffic-engineering parameters).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    Sequence,
)

from repro.analysis.policycheck import verify_policy
from repro.crypto.capability import CheckedChain, verify_capability_chains
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PublicKey
from repro.crypto.x509 import Certificate
from repro.obs.audit import ledger as obs_audit
from repro.policy.engine import (
    Decision,
    PolicyDecision,
    PolicyEngine,
    RequestContext,
)
from repro.policy.groupserver import GroupServer
from repro.policy.attributes import SignedAssertion
from repro.bb.reservations import ReservationRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

__all__ = ["VerifiedInfo", "PolicyServer", "AkentiPolicyServer"]

logger = logging.getLogger(__name__)


def _log_decision(domain: str, decision: PolicyDecision) -> None:
    """Shared decision log line for every policy-server flavour."""
    logger.debug("%s: policy %s (%s)", domain, decision.decision.name,
                 decision.reason)


@dataclass(frozen=True)
class VerifiedInfo:
    """Authorization information after verification.

    Produced by :meth:`PolicyServer.verify_credentials` (or by the
    signalling layer); only verified facts belong here.
    """

    user: DistinguishedName | None = None
    groups: frozenset[str] = frozenset()
    capabilities: frozenset[str] = frozenset()
    capability_issuers: frozenset[str] = frozenset()
    capability_restrictions: frozenset[str] = frozenset()
    #: Diagnostic: claims that failed verification, with reasons.
    rejected: tuple[str, ...] = ()
    #: Every capability delegation chain found in the request, each with
    #: its verdict — the final holder reads its §6.5 results here instead
    #: of walking the chains again.
    capability_chains: tuple[CheckedChain, ...] = ()
    #: Every assertion as received (unfiltered) — policy engines that do
    #: their own certificate evaluation (the Akenti adapter) consume these.
    raw_assertions: tuple[SignedAssertion, ...] = ()


def _community_of(issuer: DistinguishedName) -> str:
    """Derive the community name from a CAS DN (OU by convention)."""
    return issuer.get("OU") or issuer.common_name or str(issuer)


class PolicyServer:
    """Local policy decision point for one domain's bandwidth broker."""

    def __init__(
        self,
        domain: str,
        engine: PolicyEngine,
        *,
        group_servers: Iterable[GroupServer] = (),
        trusted_communities: Mapping[DistinguishedName, PublicKey] | None = None,
        domain_attributes: Mapping[str, Any] | None = None,
    ):
        self.domain = domain
        self.engine = engine
        #: Static-verifier findings for the loaded policy (warn-only: a
        #: questionable policy still loads, but the operator hears about
        #: it).  An engine with no nodes is pure-default by construction
        #: (e.g. the Akenti adapter) and is not checked.
        self.policy_findings = (
            verify_policy(engine.nodes, name=engine.name)
            if engine.nodes
            else []
        )
        for finding in self.policy_findings:
            logger.warning("%s: policy verifier: %s", domain, finding.format())
        self._group_servers = {gs.name: gs for gs in group_servers}
        self._trusted_communities = dict(trusted_communities or {})
        self.domain_attributes = dict(domain_attributes or {})
        #: Counters for the benchmark harness.
        self.decisions = 0
        #: Optional deterministic fault injector (timeout/unavailable).
        self.injector: FaultInjector | None = None
        #: Optional revocation oracle consulted on every delegation-chain
        #: verification — typically the community CA's ``is_revoked``.
        self.revocation_checker: Callable[[Certificate], bool] | None = None

    def _check_up(self) -> None:
        """Deliver a pending injected outage before answering a query."""
        if self.injector is not None:
            self.injector.policy_op(self.domain)

    # -- configuration -----------------------------------------------------------

    def register_group_server(self, server: GroupServer) -> None:
        self._group_servers[server.name] = server

    def trust_community(self, cas_dn: DistinguishedName, key: PublicKey) -> None:
        self._trusted_communities[cas_dn] = key

    # -- credential verification ----------------------------------------------------

    def verify_credentials(
        self,
        *,
        user: DistinguishedName | None,
        assertions: Sequence[SignedAssertion] = (),
        capability_certs: Sequence[Certificate] = (),
        at_time: float = 0.0,
    ) -> VerifiedInfo:
        """Turn claimed credentials into verified facts.

        Group assertions are accepted when their issuer is a registered
        group server and the server still vouches for them.  The flat
        list of capability certificates is sorted into delegation chains
        and each chain is accepted when it verifies against a trusted
        community key and this domain's revocation oracle
        (:func:`~repro.crypto.capability.verify_capability_chains`, §6.5
        checks 1–4 and 6).  Bad credentials are recorded in ``rejected``,
        not fatal — policy simply sees fewer verified facts.
        """
        self._check_up()
        groups: set[str] = set()
        rejected: list[str] = []
        for assertion in assertions:
            server = self._group_servers.get(assertion.issuer)
            if server is None:
                rejected.append(f"assertion from unknown issuer {assertion.issuer}")
                obs_audit.note_check(
                    "assertion", subject=str(assertion.issuer),
                    verdict="rejected", detail="unknown issuer",
                )
                continue
            if assertion.subject != user:
                rejected.append(f"assertion subject {assertion.subject} is not the requestor")
                obs_audit.note_check(
                    "assertion", subject=str(assertion.issuer),
                    verdict="rejected", detail="subject mismatch",
                )
                continue
            if not server.verify_assertion(assertion, at_time=at_time):
                rejected.append(f"assertion by {assertion.issuer} failed verification")
                obs_audit.note_check(
                    "assertion", subject=str(assertion.issuer),
                    verdict="rejected", detail="signature/vouching failed",
                )
                continue
            group = assertion.get("group")
            if group:
                groups.add(group)
            obs_audit.note_check(
                "assertion", subject=str(assertion.issuer),
                detail=f"group {group!r}" if group else "",
            )

        capabilities: set[str] = set()
        issuers: set[str] = set()
        restrictions: set[str] = set()
        chains = verify_capability_chains(
            capability_certs,
            trusted_issuers=self._trusted_communities,
            at_time=at_time,
            revocation_checker=self.revocation_checker,
        )
        for checked in chains:
            result = checked.result
            if result is None:
                rejected.append(f"capability chain rejected: {checked.reason}")
                continue
            capabilities |= result.capabilities
            restrictions |= result.restrictions
            issuers.add(_community_of(result.issuer))

        for why in rejected:
            logger.info("%s: rejected credential: %s", self.domain, why)
        return VerifiedInfo(
            user=user,
            groups=frozenset(groups),
            capabilities=frozenset(capabilities),
            capability_issuers=frozenset(issuers),
            capability_restrictions=frozenset(restrictions),
            rejected=tuple(rejected),
            capability_chains=chains,
            raw_assertions=tuple(assertions),
        )

    # -- decision ----------------------------------------------------------------------

    def build_context(
        self,
        request: ReservationRequest,
        verified: VerifiedInfo,
        *,
        at_time: float = 0.0,
        available_bandwidth_mbps: float = float("inf"),
        linked_validator: Callable[[str, str], bool] | None = None,
    ) -> RequestContext:
        return RequestContext(
            user=verified.user,
            bandwidth_mbps=request.rate_mbps,
            time_of_day_h=(at_time / 3600.0) % 24.0,
            reservation_type="Network",
            source_domain=request.source_domain,
            destination_domain=request.destination_domain,
            available_bandwidth_mbps=available_bandwidth_mbps,
            cost_offer=request.cost_ceiling,
            groups=verified.groups,
            capabilities=verified.capabilities,
            capability_issuers=verified.capability_issuers,
            linked_reservations=request.linked_reservations,
            attributes=request.attributes,
            linked_validator=linked_validator,
        )

    def decide(
        self,
        request: ReservationRequest,
        verified: VerifiedInfo,
        *,
        at_time: float = 0.0,
        available_bandwidth_mbps: float = float("inf"),
        linked_validator: Callable[[str, str], bool] | None = None,
    ) -> PolicyDecision:
        """Run local policy; on GRANT, attach the domain-wide additions as
        request modifications (the 'modified request' of §5)."""
        self._check_up()
        self.decisions += 1
        ctx = self.build_context(
            request,
            verified,
            at_time=at_time,
            available_bandwidth_mbps=available_bandwidth_mbps,
            linked_validator=linked_validator,
        )
        decision = self.engine.evaluate(ctx)
        if decision.decision is Decision.GRANT and self.domain_attributes:
            # replace() keeps the provenance fields (matched_rule,
            # rules_fired) the engine stamped on the decision.
            decision = replace(
                decision,
                modifications=tuple(sorted(self.domain_attributes.items())),
            )
        _log_decision(self.domain, decision)
        return decision


class AkentiPolicyServer(PolicyServer):
    """A policy server whose decisions come from an Akenti engine.

    The paper insists the propagation protocol "is independent of policy
    syntax" (§4): the same RAR envelope can carry Akenti user-attribute
    certificates instead of (or alongside) rule-engine credentials, and an
    end domain may evaluate them with Akenti's use-condition model.  This
    adapter proves the claim in code: it plugs into the broker exactly
    like the rule-engine policy server, but authorizes by submitting the
    request's raw signed assertions to an
    :class:`~repro.policy.akenti.AkentiEngine`.
    """

    def __init__(
        self,
        domain: str,
        akenti,
        resource: str,
        **kwargs: Any,
    ):
        from repro.policy.engine import PolicyEngine

        super().__init__(domain, PolicyEngine([], name=f"akenti:{domain}"),
                         **kwargs)
        self.akenti = akenti
        self.resource = resource

    def decide(
        self,
        request: ReservationRequest,
        verified: VerifiedInfo,
        *,
        at_time: float = 0.0,
        available_bandwidth_mbps: float = float("inf"),
        linked_validator=None,
    ) -> PolicyDecision:
        self._check_up()
        self.decisions += 1
        rule_id = f"akenti:{self.domain}/{self.resource}"
        if verified.user is None:
            decision = PolicyDecision(
                Decision.DENY, reason="akenti: no user",
                matched_rule=rule_id, rules_fired=(rule_id,),
            )
        elif self.akenti.authorize(
            self.resource,
            verified.user,
            verified.raw_assertions,
            at_time=at_time,
        ):
            decision = PolicyDecision(
                Decision.GRANT,
                reason=f"akenti: use conditions on {self.resource!r} satisfied",
                modifications=tuple(sorted(self.domain_attributes.items())),
                matched_rule=rule_id, rules_fired=(rule_id,),
            )
        else:
            decision = PolicyDecision(
                Decision.DENY,
                reason=f"akenti: use conditions on {self.resource!r} not satisfied",
                matched_rule=rule_id, rules_fired=(rule_id,),
            )
        _log_decision(self.domain, decision)
        return decision
