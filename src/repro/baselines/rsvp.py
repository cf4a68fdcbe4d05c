"""An RSVP/IntServ per-flow signalling baseline (paper §2).

"The first approach, as exemplified by the RSVP protocol and Integrated
Services model, requires that a reservation request be propagated through
each router that will handle the traffic for a reservation.  There are
some scaling problems with this approach, including the fact that each
router normally has to recognize each packet belonging to a reserved flow
and treat it specially."

This module implements the relevant slice of RSVP v1 semantics so the
scaling comparison (benchmark C3) is measured, not asserted:

* **PATH** messages travel sender→receiver installing per-flow path state
  (previous-hop) in *every router* on the route;
* **RESV** messages travel receiver→sender along the reverse path,
  performing per-link admission control and installing per-flow
  reservation state in every router;
* state is **soft**: it must be refreshed every ``refresh_interval`` or it
  times out after ``lifetime`` (cleanup also releases link bandwidth);
* explicit **PATH_TEAR/RESV_TEAR** removes state immediately.

Metrics exposed: per-router state entry counts, total messages (including
refreshes over time), and per-link admitted bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityExceededError, SignallingError
from repro.net.topology import Topology

__all__ = ["RSVPRouterState", "RSVPSimulator"]


@dataclass
class _PathState:
    flow_id: str
    prev_hop: str
    expires: float


@dataclass
class _ResvState:
    flow_id: str
    rate_mbps: float
    expires: float


@dataclass
class RSVPRouterState:
    """Per-router soft state tables."""

    path: dict[str, _PathState] = field(default_factory=dict)
    resv: dict[str, _ResvState] = field(default_factory=dict)

    @property
    def entries(self) -> int:
        return len(self.path) + len(self.resv)


@dataclass
class _FlowRecord:
    flow_id: str
    route: list[str]
    rate_mbps: float
    reserved: bool = False


class RSVPSimulator:
    """Per-flow PATH/RESV signalling over a topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        refresh_interval_s: float = 30.0,
        lifetime_s: float = 90.0,
    ):
        self.topology = topology
        self.refresh_interval_s = refresh_interval_s
        self.lifetime_s = lifetime_s
        self.routers: dict[str, RSVPRouterState] = {
            info.name: RSVPRouterState()
            for info in topology.nodes
            if info.is_router
        }
        #: Admitted bandwidth per directed link.
        self._link_load: dict[tuple[str, str], float] = {}
        self._flows: dict[str, _FlowRecord] = {}
        self.now = 0.0
        self.messages = 0

    # -- helpers ---------------------------------------------------------------------

    def _route(self, src: str, dst: str) -> list[str]:
        return self.topology.shortest_path(src, dst)

    def _router_hops(self, route: list[str]) -> list[str]:
        return [n for n in route if self.topology.node(n).is_router]

    def _link_capacity(self, a: str, b: str) -> float:
        return self.topology.link_attrs(a, b)["capacity_mbps"]

    def link_load(self, a: str, b: str) -> float:
        return self._link_load.get((a, b), 0.0)

    # -- PATH ------------------------------------------------------------------------

    def path(self, flow_id: str, src: str, dst: str, rate_mbps: float) -> list[str]:
        """Send a PATH message: installs path state in every router."""
        if flow_id in self._flows:
            raise SignallingError(f"flow {flow_id!r} already has path state")
        if rate_mbps <= 0:
            raise SignallingError("rate must be positive")
        route = self._route(src, dst)
        prev = src
        for node in route[1:]:
            self.messages += 1  # one PATH hop
            if self.topology.node(node).is_router:
                self.routers[node].path[flow_id] = _PathState(
                    flow_id, prev, self.now + self.lifetime_s
                )
                prev = node
        self._flows[flow_id] = _FlowRecord(flow_id, route, rate_mbps)
        return route

    # -- RESV ------------------------------------------------------------------------

    def resv(self, flow_id: str) -> None:
        """Send a RESV message along the reverse path: per-link admission +
        per-router reservation state.  Raises
        :class:`~repro.errors.CapacityExceededError` and leaves no partial
        reservation on failure."""
        record = self._flows.get(flow_id)
        if record is None:
            raise SignallingError(f"no path state for flow {flow_id!r}")
        if record.reserved:
            raise SignallingError(f"flow {flow_id!r} already reserved")
        route = record.route
        # Admission check on every link first (receiver-driven, hop by hop;
        # a failure sends a ResvErr and installs nothing upstream of it).
        links = list(zip(route, route[1:]))
        admitted: list[tuple[str, str]] = []
        try:
            for a, b in reversed(links):
                self.messages += 1  # one RESV hop
                load = self._link_load.get((a, b), 0.0)
                if load + record.rate_mbps > self._link_capacity(a, b) + 1e-9:
                    raise CapacityExceededError(
                        f"link {a}->{b}: {load} + {record.rate_mbps} exceeds "
                        f"{self._link_capacity(a, b)} Mb/s"
                    )
                self._link_load[(a, b)] = load + record.rate_mbps
                admitted.append((a, b))
        except CapacityExceededError:
            for a, b in admitted:
                self._link_load[(a, b)] -= record.rate_mbps
            raise
        for node in self._router_hops(route):
            self.routers[node].resv[flow_id] = _ResvState(
                flow_id, record.rate_mbps, self.now + self.lifetime_s
            )
        record.reserved = True

    def reserve(self, flow_id: str, src: str, dst: str, rate_mbps: float) -> None:
        """Convenience: PATH then RESV (one full reservation)."""
        self.path(flow_id, src, dst, rate_mbps)
        try:
            self.resv(flow_id)
        except CapacityExceededError:
            self.teardown(flow_id)
            raise

    # -- soft state --------------------------------------------------------------------

    def advance(self, dt: float, *, refresh: bool = True) -> None:
        """Advance time; optionally send refreshes for all live flows, then
        expire anything unrefreshed."""
        steps = int(dt // self.refresh_interval_s) if refresh else 0
        self.now += dt
        if refresh:
            for record in self._flows.values():
                hops = len(self._router_hops(record.route))
                per_refresh = hops * (2 if record.reserved else 1)
                self.messages += per_refresh * steps
                for node in self._router_hops(record.route):
                    state = self.routers[node]
                    if record.flow_id in state.path:
                        state.path[record.flow_id].expires = self.now + self.lifetime_s
                    if record.flow_id in state.resv:
                        state.resv[record.flow_id].expires = self.now + self.lifetime_s
        self._expire()

    def _expire(self) -> None:
        for name, state in self.routers.items():
            for flow_id in [f for f, s in state.path.items() if s.expires <= self.now]:
                del state.path[flow_id]
            for flow_id in [f for f, s in state.resv.items() if s.expires <= self.now]:
                self._release_links(flow_id, only_if_gone=name)
                del state.resv[flow_id]
        # Flows whose state is gone everywhere are forgotten.
        for flow_id in list(self._flows):
            if not any(
                flow_id in s.path or flow_id in s.resv
                for s in self.routers.values()
            ):
                self._flows.pop(flow_id)

    def _release_links(self, flow_id: str, *, only_if_gone: str) -> None:
        """Release this flow's link bandwidth once (keyed to the first
        router that expires it)."""
        record = self._flows.get(flow_id)
        if record is None or not record.reserved:
            return
        first_router = self._router_hops(record.route)[0]
        if only_if_gone != first_router:
            return
        for a, b in zip(record.route, record.route[1:]):
            self._link_load[(a, b)] = max(
                0.0, self._link_load.get((a, b), 0.0) - record.rate_mbps
            )
        record.reserved = False

    # -- teardown ---------------------------------------------------------------------

    def teardown(self, flow_id: str) -> None:
        """PATH_TEAR + RESV_TEAR: remove all state immediately."""
        record = self._flows.pop(flow_id, None)
        if record is None:
            raise SignallingError(f"unknown flow {flow_id!r}")
        hops = self._router_hops(record.route)
        self.messages += len(hops)
        for node in hops:
            self.routers[node].path.pop(flow_id, None)
            self.routers[node].resv.pop(flow_id, None)
        if record.reserved:
            for a, b in zip(record.route, record.route[1:]):
                self._link_load[(a, b)] = max(
                    0.0, self._link_load.get((a, b), 0.0) - record.rate_mbps
                )

    # -- metrics -----------------------------------------------------------------------

    def total_state(self) -> int:
        return sum(s.entries for s in self.routers.values())

    def max_router_state(self) -> int:
        return max((s.entries for s in self.routers.values()), default=0)
