"""The DiffServ data plane: edge classification/policing, core PHBs.

:class:`NetworkModel` animates a :class:`~repro.net.topology.Topology`
on a :class:`~repro.net.simulator.Simulator`:

* every directed link direction is an output port — a strict-priority
  scheduler draining at link capacity, plus propagation delay;
* the *first router* a flow traverses may hold a **per-flow policer**
  (installed by the source domain's bandwidth broker when a reservation
  is claimed): conforming packets are marked with the reserved DSCP,
  excess packets are downgraded to best effort or dropped;
* packets marked in a reserved class that reach a first-hop router with
  no policer for their flow are *remarked to best effort* — hosts cannot
  self-award EF service;
* every **domain ingress** edge router may hold an **aggregate policer**
  per DSCP (configured by that domain's broker to the sum of admitted
  reservations crossing this ingress).  The aggregate policer knows
  nothing about individual flows — exactly the property the Figure 4
  misreservation attack exploits.

The model is packet level but entirely event driven; a 10-second,
three-domain, multi-flow scenario simulates in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import RoutingError, SimulationError
from repro.net.flows import FlowStats
from repro.obs import metrics as obs_metrics
from repro.net.packet import DSCP, Packet
from repro.net.queues import PriorityScheduler
from repro.net.simulator import Simulator
from repro.net.tokenbucket import TokenBucket
from repro.net.topology import NodeKind, Topology

__all__ = [
    "ExceedAction",
    "TrafficProfile",
    "FlowPolicer",
    "AggregatePolicer",
    "NetworkModel",
]

#: Hop budget: packets travelling further than this are assumed looping.
MAX_HOPS = 64


class ExceedAction(Enum):
    """What a policer does with non-conforming packets."""

    DROP = "drop"
    DOWNGRADE = "downgrade"


@dataclass(frozen=True)
class TrafficProfile:
    """A token-bucket traffic profile (the SLS 'traffic profile' of §2)."""

    rate_mbps: float
    burst_bits: float = 100_000.0

    @property
    def rate_bps(self) -> float:
        return self.rate_mbps * 1e6

    def make_bucket(self, now: float = 0.0) -> TokenBucket:
        return TokenBucket(self.rate_bps, self.burst_bits, last_refill=now)


@dataclass
class FlowPolicer:
    """Per-flow policer + marker at the flow's first router."""

    flow_id: str
    bucket: TokenBucket
    mark: DSCP
    exceed: ExceedAction = ExceedAction.DOWNGRADE
    conformed: int = 0
    exceeded: int = 0


@dataclass
class AggregatePolicer:
    """Per-DSCP aggregate policer at a domain ingress."""

    dscp: DSCP
    bucket: TokenBucket
    exceed: ExceedAction = ExceedAction.DROP
    conformed: int = 0
    exceeded: int = 0


class _OutputPort:
    """One direction of a link: queue + transmitter."""

    __slots__ = ("capacity_bps", "delay_s", "scheduler", "busy", "tx_bits")

    def __init__(self, capacity_mbps: float, delay_s: float, queue_bits: float):
        self.capacity_bps = capacity_mbps * 1e6
        self.delay_s = delay_s
        self.scheduler = PriorityScheduler(queue_bits)
        self.busy = False
        self.tx_bits = 0.0


class NetworkModel:
    """Event-driven DiffServ data plane over a topology."""

    def __init__(
        self,
        topology: Topology,
        sim: Simulator | None = None,
        *,
        queue_bits_per_class: float = 600_000.0,
    ):
        self.topology = topology
        self.sim = sim if sim is not None else Simulator()
        self._ports: dict[tuple[str, str], _OutputPort] = {}
        for a, b in topology.graph.edges:
            attrs = topology.link_attrs(a, b)
            for u, v in ((a, b), (b, a)):
                self._ports[(u, v)] = _OutputPort(
                    attrs["capacity_mbps"], attrs["delay_s"], queue_bits_per_class
                )
        self._flow_policers: dict[str, dict[str, FlowPolicer]] = {}
        self._aggregate_policers: dict[str, dict[DSCP, AggregatePolicer]] = {}
        self.stats: dict[str, FlowStats] = {}
        self._next_hop_cache: dict[tuple[str, str], str] = {}
        #: (router, reason) -> count; diagnostic ledger of all drops.
        self.drop_ledger: dict[tuple[str, str], int] = {}

    # -- broker-facing configuration ------------------------------------------------

    def install_flow_policer(
        self,
        router: str,
        flow_id: str,
        profile: TrafficProfile,
        *,
        mark: DSCP = DSCP.EF,
        exceed: ExceedAction = ExceedAction.DOWNGRADE,
    ) -> FlowPolicer:
        """Install per-flow classification at *router* (a BB action when a
        reservation is claimed)."""
        info = self.topology.node(router)
        if not info.is_router:
            raise RoutingError(f"{router!r} is not a router")
        policer = FlowPolicer(flow_id, profile.make_bucket(self.sim.now), mark, exceed)
        self._flow_policers.setdefault(router, {})[flow_id] = policer
        return policer

    def remove_flow_policer(self, router: str, flow_id: str) -> None:
        try:
            del self._flow_policers[router][flow_id]
        except KeyError:
            raise SimulationError(
                f"no policer for flow {flow_id!r} at {router!r}"
            ) from None

    def set_aggregate_rate(
        self,
        router: str,
        dscp: DSCP,
        rate_mbps: float,
        *,
        burst_bits: float = 200_000.0,
        exceed: ExceedAction = ExceedAction.DROP,
    ) -> AggregatePolicer:
        """Configure (or reconfigure) the per-DSCP aggregate policer at a
        domain-ingress edge router."""
        info = self.topology.node(router)
        if info.kind is not NodeKind.EDGE_ROUTER:
            raise RoutingError(f"{router!r} is not an edge router")
        policers = self._aggregate_policers.setdefault(router, {})
        existing = policers.get(dscp)
        if existing is not None:
            existing.bucket.reconfigure(
                rate_bps=rate_mbps * 1e6, burst_bits=burst_bits, now=self.sim.now
            )
            existing.exceed = exceed
            return existing
        policer = AggregatePolicer(
            dscp,
            TokenBucket(rate_mbps * 1e6, burst_bits, last_refill=self.sim.now),
            exceed,
        )
        policers[dscp] = policer
        return policer

    def aggregate_policer(self, router: str, dscp: DSCP) -> AggregatePolicer | None:
        return self._aggregate_policers.get(router, {}).get(dscp)

    def flow_policer(self, router: str, flow_id: str) -> FlowPolicer | None:
        return self._flow_policers.get(router, {}).get(flow_id)

    # -- traffic entry ----------------------------------------------------------------

    def stats_for(self, flow_id: str) -> FlowStats:
        if flow_id not in self.stats:
            self.stats[flow_id] = FlowStats(flow_id)
        return self.stats[flow_id]

    def inject(self, packet: Packet) -> None:
        """Offer *packet* to the network at its source host."""
        src = self.topology.node(packet.src)
        if src.kind is not NodeKind.HOST:
            raise RoutingError(f"packets must originate at hosts, not {packet.src!r}")
        packet.created = self.sim.now
        self.stats_for(packet.flow_id).on_send(packet.size_bits, self.sim.now)
        self._forward(packet, at=packet.src, prev=None)

    # -- internal data path --------------------------------------------------------------

    def _drop(self, packet: Packet, where: str, reason: str) -> None:
        key = (where, reason)
        self.drop_ledger[key] = self.drop_ledger.get(key, 0) + 1
        self.stats_for(packet.flow_id).on_drop()
        registry = obs_metrics.get_registry()
        if registry is not None:
            # Drops are rare relative to forwards, so metering here keeps
            # the per-packet fast path free of registry lookups.
            registry.counter(
                "packet_drops_total", "Packets dropped in the data plane",
            ).inc(where=where, reason=reason)
            if reason == "queue-overflow":
                for (u, _v), port in self._ports.items():
                    if u == where:
                        registry.gauge(
                            "queue_depth_bits",
                            "Scheduler occupancy at the dropping router",
                        ).set(port.scheduler.backlog_bits, router=where)
                        break

    def _next_hop(self, at: str, dst: str) -> str:
        key = (at, dst)
        hop = self._next_hop_cache.get(key)
        if hop is None:
            path = self.topology.shortest_path(at, dst)
            # Cache every prefix of the path while we have it.
            for i in range(len(path) - 1):
                self._next_hop_cache[(path[i], dst)] = path[i + 1]
            hop = path[1]
        return hop

    def _apply_first_hop_policing(self, packet: Packet, router: str) -> bool:
        """Per-flow policing at the flow's first router.  Returns False when
        the packet was dropped."""
        policer = self._flow_policers.get(router, {}).get(packet.flow_id)
        if policer is None:
            # No reservation claimed here: reserved marks are not honoured.
            if packet.dscp != DSCP.BE:
                packet.dscp = DSCP.BE
                packet.downgraded = True
                self.stats_for(packet.flow_id).on_downgrade()
            return True
        if policer.bucket.consume(packet.size_bits, self.sim.now):
            policer.conformed += 1
            packet.dscp = policer.mark
            return True
        policer.exceeded += 1
        if policer.exceed is ExceedAction.DROP:
            self._drop(packet, router, "flow-policer")
            return False
        packet.dscp = DSCP.BE
        packet.downgraded = True
        self.stats_for(packet.flow_id).on_downgrade()
        return True

    def _apply_ingress_policing(self, packet: Packet, router: str) -> bool:
        """Aggregate policing when a packet enters a new domain."""
        policer = self._aggregate_policers.get(router, {}).get(packet.dscp)
        if policer is None:
            # Unprovisioned ingress: reserved marks are stripped.
            if packet.dscp != DSCP.BE:
                packet.dscp = DSCP.BE
                packet.downgraded = True
                self.stats_for(packet.flow_id).on_downgrade()
            return True
        if policer.bucket.consume(packet.size_bits, self.sim.now):
            policer.conformed += 1
            return True
        policer.exceeded += 1
        if policer.exceed is ExceedAction.DROP:
            self._drop(packet, router, "aggregate-policer")
            return False
        packet.dscp = DSCP.BE
        packet.downgraded = True
        self.stats_for(packet.flow_id).on_downgrade()
        return True

    def _forward(self, packet: Packet, at: str, prev: str | None) -> None:
        """Process *packet* at node *at* (arrived from *prev*)."""
        if at == packet.dst:
            self.stats_for(packet.flow_id).on_deliver(
                packet.size_bits, packet.created, self.sim.now
            )
            return
        info = self.topology.node(at)
        if info.kind is NodeKind.HOST and prev is not None:
            self._drop(packet, at, "misdelivered")
            return
        packet.hops += 1
        if packet.hops > MAX_HOPS:
            self._drop(packet, at, "ttl")
            return
        if info.is_router:
            if prev is not None and self.topology.node(prev).kind is NodeKind.HOST:
                if not self._apply_first_hop_policing(packet, at):
                    return
            if (
                prev is not None
                and self.topology.node(prev).domain != info.domain
            ):
                if not self._apply_ingress_policing(packet, at):
                    return
        nxt = self._next_hop(at, packet.dst)
        self._transmit(packet, at, nxt)

    def _transmit(self, packet: Packet, u: str, v: str) -> None:
        port = self._ports[(u, v)]
        if not port.scheduler.offer(packet):
            self._drop(packet, u, "queue-overflow")
            return
        if not port.busy:
            self._service(port, u, v)

    def _service(self, port: _OutputPort, u: str, v: str) -> None:
        packet = port.scheduler.poll()
        if packet is None:
            port.busy = False
            return
        port.busy = True
        tx_time = packet.size_bits / port.capacity_bps
        port.tx_bits += packet.size_bits
        arrival = tx_time + port.delay_s
        self.sim.schedule(arrival, lambda p=packet: self._forward(p, at=v, prev=u))
        self.sim.schedule(tx_time, lambda: self._service(port, u, v))

    # -- measurement -------------------------------------------------------------------

    def total_drops(self, reason: str | None = None) -> int:
        return sum(
            n for (where, r), n in self.drop_ledger.items()
            if reason is None or r == reason
        )
