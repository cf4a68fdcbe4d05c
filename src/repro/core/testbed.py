"""Testbed builder: wires every subsystem into a runnable multi-domain grid.

One call to :func:`build_linear_testbed` produces the paper's standard
scenario — a chain of administrative domains, each with its own CA,
bandwidth broker, policy server, admission controller, and DiffServ edge
routers, joined by SLAs, mutually authenticated signalling channels, and
a shared discrete-event network simulator.

The resulting :class:`Testbed` exposes the paper's three signalling
approaches side by side:

* ``testbed.hop_by_hop`` — Approach 2, the contribution;
* ``testbed.end_to_end_agent`` — Approach 1 (GARA end-to-end library);
* ``testbed.coordinator(domain)`` — the STARS-style variant;
* ``testbed.tunnels`` — aggregate tunnels with end-domain-only flows.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.bb.admission import AdmissionController
from repro.bb.broker import (
    INTRA,
    BandwidthBroker,
    egress_resource,
    ingress_resource,
)
from repro.bb.policyserver import PolicyServer
from repro.bb.reservations import (
    Reservation,
    ReservationRequest,
    ReservationState,
)
from repro.bb.sla import SLA, SLS
from repro.core.agent import UserAgent
from repro.core.channel import ChannelRegistry
from repro.core.hopbyhop import HopByHopProtocol, SignallingOutcome
from repro.core.sourcedomain import EndToEndAgent
from repro.core.stars import ReservationCoordinator
from repro.core.tunnels import TunnelService
from repro.crypto.dn import DN
from repro.crypto.truststore import TrustPolicy, TrustStore
from repro.crypto.x509 import Certificate, CertificateAuthority
from repro.errors import SignallingError
from repro.net.diffserv import ExceedAction, NetworkModel, TrafficProfile
from repro.net.packet import DSCP
from repro.net.simulator import Simulator
from repro.net.topology import (
    Topology,
    linear_domain_chain,
    mesh_domains,
    star_domains,
)
from repro.policy.cas import CommunityAuthorizationServer
from repro.policy.engine import Decision, PolicyEngine, Return
from repro.policy.groupserver import GroupServer
from repro.policy.language import compile_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bb.defense import DefensePolicy, DomainDefense
    from repro.faults.injector import FaultInjector

__all__ = [
    "CHANNEL_LATENCY_S",
    "USER_CHANNEL_LATENCY_S",
    "Testbed",
    "build_linear_testbed",
    "build_star_testbed",
    "build_mesh_testbed",
    "NetworkEdgeConfigurator",
]

#: Default per-request SLS cap: generous so admission, not the SLS,
#: is normally the binding constraint.
_DEFAULT_SLS_RATE = 1000.0
#: One-way latency of every inter-BB channel, and of the out-of-band
#: channel Approach 1 opens between a user and a remote BB.
CHANNEL_LATENCY_S = 0.005
#: One-way latency of the channel between a user and its home BB.
USER_CHANNEL_LATENCY_S = 0.001


class NetworkEdgeConfigurator:
    """Broker-to-data-plane glue: implements
    :class:`repro.bb.broker.EdgeConfigurator` against the DiffServ model."""

    def __init__(self, network: NetworkModel) -> None:
        self.network = network

    def _first_router(self, host: str) -> str:
        return self.network.topology.shortest_path(
            host, next(iter(self.network.topology.graph[host]))
        )[1]

    def provision_flow(self, domain: str, reservation: Reservation) -> None:
        request = reservation.request
        flow_id = str(request.attribute("flow_id", reservation.handle))
        router = self._first_router(request.source_host)
        self.network.install_flow_policer(
            router,
            flow_id,
            TrafficProfile(request.rate_mbps, request.burst_bits),
            mark=request.service_class,
            exceed=ExceedAction.DOWNGRADE,
        )

    def teardown_flow(self, domain: str, reservation: Reservation) -> None:
        request = reservation.request
        flow_id = str(request.attribute("flow_id", reservation.handle))
        router = self._first_router(request.source_host)
        if self.network.flow_policer(router, flow_id) is not None:
            self.network.remove_flow_policer(router, flow_id)

    def provision_ingress(
        self, domain: str, upstream: str, service_class: DSCP,
        total_rate_mbps: float,
    ) -> None:
        borders = self.network.topology.border_routers(domain, upstream)
        for router in borders:
            self.network.set_aggregate_rate(
                router,
                service_class,
                total_rate_mbps,
                burst_bits=max(1000.0, total_rate_mbps * 20_000.0),
                exceed=ExceedAction.DROP,
            )


class Testbed:
    """A fully wired multi-domain QoS testbed.

    Channels take :data:`CHANNEL_LATENCY_S` between brokers and
    :data:`USER_CHANNEL_LATENCY_S` from a user to its home broker; each
    domain starts with a policy that grants everything, which
    :meth:`set_policy` (or the mapping form of
    :func:`build_linear_testbed`) replaces.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        scheme: str = "simulated",
        trust_policy: TrustPolicy | None = None,
        seed: int = 2001,
        soft_state_ttl_s: float | None = None,
    ) -> None:
        self.topology = topology
        self.sim = Simulator()
        self.network = NetworkModel(topology, self.sim)
        self.scheme = scheme
        self.rng = random.Random(seed)
        self.channels = ChannelRegistry()
        self.users: dict[str, UserAgent] = {}
        self.cas_servers: dict[str, CommunityAuthorizationServer] = {}
        self.group_servers: dict[str, GroupServer] = {}
        self._trust_policy = trust_policy if trust_policy is not None else TrustPolicy(
            max_introduction_depth=16, require_ca_issued_peers=False
        )
        #: RSVP-style soft-state lease length for every broker (None =
        #: hard state, the pre-robustness default).
        self.soft_state_ttl_s = soft_state_ttl_s
        self._configurator = NetworkEdgeConfigurator(self.network)

        self.domain_cas: dict[str, CertificateAuthority] = {}
        self.brokers: dict[str, BandwidthBroker] = {}
        for domain in topology.domains():
            self._build_domain(domain)
        self._peer_domains()

        clock = lambda: self.sim.now  # noqa: E731 - tiny closure
        self.hop_by_hop = HopByHopProtocol(
            self.brokers,
            self.channels,
            self.topology.domain_path,
            clock=clock,
        )
        self.end_to_end_agent = EndToEndAgent(self.hop_by_hop)
        self.tunnels = TunnelService(self.hop_by_hop, self.channels)
        self._coordinators: dict[str, ReservationCoordinator] = {}

    # -- construction ------------------------------------------------------------

    def _build_domain(self, domain: str) -> None:
        ca = CertificateAuthority(
            DN.make("Grid", domain, f"CA-{domain}"),
            rng=self.rng,
            scheme=self.scheme,
        )
        self.domain_cas[domain] = ca

        engine = PolicyEngine(
            [Return(Decision.GRANT, f"{domain}: default grant")], name=domain
        )

        admission = AdmissionController()
        intra_capacity = self._intra_capacity(domain)
        admission.add_resource(INTRA, intra_capacity)

        server = PolicyServer(domain, engine)
        keypair, cert = ca.issue_keypair(
            DN.make("Grid", domain, f"BB-{domain}"), rng=self.rng
        )
        store = TrustStore(self._trust_policy)
        store.add_anchor(ca.certificate)
        broker = BandwidthBroker(
            domain,
            policy_server=server,
            admission=admission,
            keypair=keypair,
            certificate=cert,
            truststore=store,
            configurator=self._configurator,
            soft_state_ttl_s=self.soft_state_ttl_s,
        )
        self.brokers[domain] = broker

    def _intra_capacity(self, domain: str) -> float:
        caps = [
            self.topology.link_attrs(a, b)["capacity_mbps"]
            for a, b in self.topology.graph.edges
            if self.topology.node(a).domain == domain
            and self.topology.node(b).domain == domain
        ]
        return min(caps) if caps else 1000.0

    def _peer_domains(self) -> None:
        """Create SLAs, trust relationships, admission resources, and
        signalling channels for each pair of adjacent domains."""
        seen: set[frozenset[str]] = set()
        for a, b in self.topology.interdomain_links():
            da, db = self.topology.node(a).domain, self.topology.node(b).domain
            key = frozenset({da, db})
            if key in seen:
                continue
            seen.add(key)
            capacity = self.topology.link_attrs(a, b)["capacity_mbps"]
            for up, down in ((da, db), (db, da)):
                sla = SLA(
                    up,
                    down,
                    slss={DSCP.EF: SLS(max_rate_mbps=min(_DEFAULT_SLS_RATE, capacity))},
                    peer_certificate=self.brokers[up].certificate,
                    peer_ca_certificate=self.domain_cas[up].certificate,
                )
                self.brokers[up].register_sla(sla)
                self.brokers[down].register_sla(sla)
                self.brokers[up].admission.add_resource(
                    egress_resource(down), capacity
                )
                self.brokers[down].admission.add_resource(
                    ingress_resource(up), capacity
                )
            # Contractual trust: each BB trusts the peer's certificate
            # directly (the SLA carries it), then the channel can open.
            self.brokers[da].truststore.add_introduced_peer(
                self.brokers[db].certificate
            )
            self.brokers[db].truststore.add_introduced_peer(
                self.brokers[da].certificate
            )
            self.channels.connect(
                self.brokers[da], self.brokers[db],
                latency_s=CHANNEL_LATENCY_S,
            )

    # -- admission-plane defenses ------------------------------------------------

    def arm_defenses(
        self,
        policy: "DefensePolicy | None" = None,
        *,
        domains: Iterable[str] | None = None,
    ) -> "dict[str, DomainDefense]":
        """Attach admission-plane defenses (rate limits, quotas, replay
        guard, shedding) to every broker (or just *domains*); returns the
        per-domain defense states for inspection.  One shared policy, one
        independent state per domain."""
        from repro.bb.defense import DomainDefense

        armed: dict[str, DomainDefense] = {}
        for domain in (domains if domains is not None else self.brokers):
            defense = DomainDefense(policy, domain=domain)
            self.brokers[domain].defense = defense
            armed[domain] = defense
        return armed

    # -- fault injection ---------------------------------------------------------

    def attach_injector(self, injector: "FaultInjector | None") -> None:
        """Wire a deterministic fault injector into every instrumented
        subsystem: all signalling channels (present and future), every
        broker and its policy server, and the certificate repository when
        the protocol runs in repository mode."""
        self.channels.set_injector(injector)
        for broker in self.brokers.values():
            broker.injector = injector
            broker.policy_server.injector = injector
        if self.hop_by_hop.repository is not None:
            self.hop_by_hop.repository.injector = injector

    def detach_injector(self) -> None:
        """Remove the fault injector everywhere (back to a clean fabric)."""
        self.attach_injector(None)

    def sweep_soft_state(self, now: float | None = None) -> int:
        """Run every broker's soft-state sweep; returns reservations
        reclaimed.  A no-op unless the testbed was built with
        ``soft_state_ttl_s``."""
        when = self.sim.now if now is None else now
        return sum(
            len(broker.sweep_soft_state(when))
            for broker in self.brokers.values()
        )

    # -- population -----------------------------------------------------------------

    def add_user(self, domain: str, name: str) -> UserAgent:
        """Create a user homed in *domain*: certificate from the domain CA,
        bilateral trust with the local BB only (the paper's assumption)."""
        if domain not in self.brokers:
            raise SignallingError(f"unknown domain {domain!r}")
        ca = self.domain_cas[domain]
        dn = DN.make("Grid", domain, name)
        keypair, cert = ca.issue_keypair(dn, rng=self.rng)
        store = TrustStore(self._trust_policy)
        store.add_anchor(ca.certificate)
        user = UserAgent(
            dn, domain, keypair=keypair, certificate=cert, truststore=store
        )
        self.users[name] = user
        # The home BB trusts local users through the shared domain CA anchor;
        # pre-open the user channel so latency config applies.
        self.channels.connect(
            user, self.brokers[domain], latency_s=USER_CHANNEL_LATENCY_S
        )
        return user

    def introduce_user_to(self, user: UserAgent, domain: str) -> None:
        """Out-of-band bilateral trust between *user* and a remote domain's
        BB — what Approach 1 requires with every domain on the path."""
        bb = self.brokers[domain]
        bb.truststore.add_introduced_peer(user.certificate)
        user.truststore.add_introduced_peer(bb.certificate)
        self.channels.connect(user, bb, latency_s=CHANNEL_LATENCY_S)

    def add_cas(
        self, community: str, *, domains: Iterable[str] | None = None
    ) -> CommunityAuthorizationServer:
        """Stand up a CAS and register it as a trusted community with the
        policy servers of *domains* (default: all)."""
        cas = CommunityAuthorizationServer(
            community, rng=self.rng, scheme=self.scheme
        )
        self.cas_servers[community] = cas
        for domain in domains if domains is not None else self.brokers:
            server = self.brokers[domain].policy_server
            server.trust_community(cas.name, cas.public_key)
            server.revocation_checker = self._capability_revoked
        return cas

    def _capability_revoked(self, cert: Certificate) -> bool:
        """Aggregate revocation oracle over every CAS this testbed runs:
        a capability is revoked when any community authority says so."""
        return any(
            cas.is_revoked(cert) for cas in self.cas_servers.values()
        )

    def add_group_server(
        self, name: str, *, domains: Iterable[str] | None = None
    ) -> GroupServer:
        gs = GroupServer(
            DN.make("Grid", name, "GroupServer"), rng=self.rng, scheme=self.scheme
        )
        self.group_servers[name] = gs
        for domain in domains if domains is not None else self.brokers:
            self.brokers[domain].policy_server.register_group_server(gs)
        return gs

    def set_policy(self, domain: str, policy: str | PolicyEngine) -> None:
        engine = (
            compile_policy(policy, name=domain)
            if isinstance(policy, str)
            else policy
        )
        self.brokers[domain].policy_server.engine = engine

    def coordinator(self, domain: str) -> ReservationCoordinator:
        """The STARS-style reservation coordinator of *domain* (created on
        first use; every BB is given contractual trust in it)."""
        rc = self._coordinators.get(domain)
        if rc is not None:
            return rc
        ca = self.domain_cas[domain]
        dn = DN.make("Grid", domain, f"RC-{domain}")
        keypair, cert = ca.issue_keypair(dn, rng=self.rng)
        store = TrustStore(self._trust_policy)
        store.add_anchor(ca.certificate)
        rc = ReservationCoordinator(
            domain, self.hop_by_hop,
            dn=dn, keypair=keypair, certificate=cert, truststore=store,
        )
        for bb in self.brokers.values():
            bb.truststore.add_introduced_peer(cert)
            store.add_introduced_peer(bb.certificate)
        self._coordinators[domain] = rc
        return rc

    # -- convenience API ----------------------------------------------------------------

    def make_request(
        self,
        *,
        source: str,
        destination: str,
        bandwidth_mbps: float,
        start: float = 0.0,
        duration: float = 3600.0,
        source_host: str | None = None,
        destination_host: str | None = None,
        **kwargs: Any,
    ) -> ReservationRequest:
        if source_host is None:
            hosts = self.topology.hosts_in_domain(source)
            source_host = hosts[0].name if hosts else f"h0.{source}"
        if destination_host is None:
            hosts = self.topology.hosts_in_domain(destination)
            destination_host = hosts[0].name if hosts else f"h0.{destination}"
        return ReservationRequest(
            source_host=source_host,
            destination_host=destination_host,
            source_domain=source,
            destination_domain=destination,
            rate_mbps=bandwidth_mbps,
            start=start,
            end=start + duration,
            **kwargs,
        )

    def reserve(
        self,
        user: UserAgent,
        *,
        source: str,
        destination: str,
        bandwidth_mbps: float,
        start: float = 0.0,
        duration: float = 3600.0,
        deadline_s: float | None = None,
        **kwargs: Any,
    ) -> SignallingOutcome:
        """Hop-by-hop end-to-end reservation (the paper's protocol).

        ``deadline_s`` bounds the signalling attempt end to end (it rides
        in the RAR, not in the reservation spec)."""
        request = self.make_request(
            source=source,
            destination=destination,
            bandwidth_mbps=bandwidth_mbps,
            start=start,
            duration=duration,
            **kwargs,
        )
        return self.hop_by_hop.reserve(user, request, deadline_s=deadline_s)

    def schedule_activation(self, outcome: SignallingOutcome) -> None:
        """Automate an advance reservation's lifecycle on the simulation
        clock: claim it in every domain at its start time (configuring the
        edge routers) and expire it at its end time (releasing capacity
        and deprovisioning).  A reservation whose window has already begun
        is claimed immediately.
        """
        if not outcome.granted or outcome.verified is None:
            raise SignallingError("can only schedule granted reservations")
        request = outcome.verified.request

        def claim() -> None:
            # Tolerate a manual cancel between granting and the window
            # opening: claim only when every domain still holds the row
            # (a cancelled row has left its table) and none is claimed.
            tables = [
                (self.brokers[d].reservations, outcome.handles[d])
                for d in outcome.path
            ]
            if all(
                handle in table
                and table.get(handle).state is ReservationState.GRANTED
                for table, handle in tables
            ):
                self.hop_by_hop.claim(outcome)

        def expire() -> None:
            for domain in outcome.path:
                broker = self.brokers[domain]
                handle = outcome.handles[domain]
                if handle in broker.reservations:
                    broker.cancel(handle)

        self.sim.at(max(self.sim.now, request.start), claim)
        self.sim.at(max(self.sim.now, request.end), expire)


def build_linear_testbed(
    domains: list[str] | Mapping[str, str],
    *,
    hosts_per_domain: int = 2,
    inter_capacity_mbps: float = 155.0,
    intra_capacity_mbps: float = 1000.0,
    **kwargs: Any,
) -> Testbed:
    """Build the paper's standard chain testbed.

    *domains* is a list of names, or a mapping name → policy-file source
    for per-domain policies.
    """
    names = list(domains)
    topo = linear_domain_chain(
        names,
        hosts_per_domain=hosts_per_domain,
        inter_capacity_mbps=inter_capacity_mbps,
        intra_capacity_mbps=intra_capacity_mbps,
    )
    testbed = Testbed(topo, **kwargs)
    if isinstance(domains, Mapping):
        for name, policy in domains.items():
            testbed.set_policy(name, policy)
    return testbed


def build_star_testbed(
    hub: str,
    leaves: list[str],
    *,
    hosts_per_domain: int = 1,
    inter_capacity_mbps: float = 155.0,
    **kwargs: Any,
) -> Testbed:
    """An ISP-hub testbed: stub domains peering only with *hub* (the
    common 2001 deployment shape — every leaf-to-leaf reservation crosses
    exactly three domains)."""
    topo = star_domains(
        hub, leaves,
        hosts_per_domain=hosts_per_domain,
        inter_capacity_mbps=inter_capacity_mbps,
    )
    return Testbed(topo, **kwargs)


def build_mesh_testbed(
    domains: list[str],
    *,
    hosts_per_domain: int = 1,
    inter_capacity_mbps: float = 155.0,
    **kwargs: Any,
) -> Testbed:
    """A full-mesh testbed: every domain pair peers directly."""
    topo = mesh_domains(
        domains,
        hosts_per_domain=hosts_per_domain,
        inter_capacity_mbps=inter_capacity_mbps,
    )
    return Testbed(topo, **kwargs)
