"""Multi-domain network topology.

The testbed of the paper (Figures 2–7) is a chain of administrative
domains — source domain A, intermediate/ISP domains, destination domain —
each with hosts, edge routers at the domain borders, and core routers
inside.  A :class:`Topology` is a static annotated graph (networkx under
the hood); the dynamic packet behaviour lives in
:mod:`repro.net.diffserv`.

Because it is static, the domain-level answers — the inter-domain links,
the border routers of each ``(domain, towards)`` pair and the domain
graph — are kept in one private index instead of rescanning every link
on every hop.  The index is built from ``graph.edges``, in their
iteration order, on the first query after the topology changes, so each
answer and its order is what the scan gives; :meth:`Topology.add_node`
and :meth:`Topology.add_link`, the only writers of ``graph``, drop it.

Link attributes: ``capacity_mbps`` (transmission rate) and ``delay_s``
(propagation delay).  All links are bidirectional with symmetric
attributes; the data plane treats each direction independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import networkx as nx

from repro.errors import NoRouteError, RoutingError

__all__ = [
    "NodeKind",
    "NodeInfo",
    "Topology",
    "linear_domain_chain",
    "star_domains",
    "mesh_domains",
]


class NodeKind(Enum):
    HOST = "host"
    EDGE_ROUTER = "edge"
    CORE_ROUTER = "core"


@dataclass(frozen=True)
class NodeInfo:
    """Static facts about one node."""

    name: str
    domain: str
    kind: NodeKind

    @property
    def is_router(self) -> bool:
        return self.kind is not NodeKind.HOST


@dataclass(frozen=True)
class _DomainIndex:
    """The domain-level view of a topology's links, in link order."""

    links: tuple[tuple[str, str], ...]
    borders: dict[tuple[str, str], tuple[str, ...]]
    graph: nx.Graph


class Topology:
    """An annotated multi-domain graph."""

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self._nodes: dict[str, NodeInfo] = {}
        self._index: _DomainIndex | None = None

    # -- construction -----------------------------------------------------------

    def add_node(self, name: str, domain: str, kind: NodeKind) -> NodeInfo:
        if name in self._nodes:
            raise RoutingError(f"duplicate node name {name!r}")
        info = NodeInfo(name, domain, kind)
        self._nodes[name] = info
        self.graph.add_node(name)
        self._index = None
        return info

    def add_host(self, name: str, domain: str) -> NodeInfo:
        return self.add_node(name, domain, NodeKind.HOST)

    def add_edge_router(self, name: str, domain: str) -> NodeInfo:
        return self.add_node(name, domain, NodeKind.EDGE_ROUTER)

    def add_core_router(self, name: str, domain: str) -> NodeInfo:
        return self.add_node(name, domain, NodeKind.CORE_ROUTER)

    def add_link(
        self, a: str, b: str, *, capacity_mbps: float, delay_s: float = 0.001
    ) -> None:
        """Add a bidirectional link (both endpoints must already exist)."""
        for n in (a, b):
            if n not in self._nodes:
                raise RoutingError(f"unknown node {n!r}")
        if a == b:
            raise RoutingError(f"a link needs two distinct nodes, got {a!r} twice")
        if capacity_mbps <= 0 or delay_s < 0:
            raise RoutingError("link needs capacity > 0 and delay >= 0")
        self.graph.add_edge(a, b, capacity_mbps=capacity_mbps, delay_s=delay_s)
        self._index = None

    # -- queries ------------------------------------------------------------------

    def node(self, name: str) -> NodeInfo:
        try:
            return self._nodes[name]
        except KeyError:
            raise RoutingError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> tuple[NodeInfo, ...]:
        return tuple(self._nodes.values())

    def domains(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for info in self._nodes.values():
            seen.setdefault(info.domain, None)
        return tuple(seen)

    def hosts_in_domain(self, domain: str) -> tuple[NodeInfo, ...]:
        return tuple(
            i for i in self._nodes.values()
            if i.domain == domain and i.kind is NodeKind.HOST
        )

    def link_attrs(self, a: str, b: str) -> dict:
        try:
            return self.graph.edges[a, b]
        except KeyError:
            raise RoutingError(f"no link {a!r}-{b!r}") from None

    def _domain_index(self) -> _DomainIndex:
        """The index, built from one pass over the links if it was dropped."""
        if self._index is None:
            links: list[tuple[str, str]] = []
            borders: dict[tuple[str, str], dict[str, None]] = {}
            graph = nx.Graph()
            graph.add_nodes_from(self.domains())
            for a, b in self.graph.edges:
                da, db = self._nodes[a].domain, self._nodes[b].domain
                if da != db:
                    links.append((a, b))
                    borders.setdefault((da, db), {})[a] = None
                    borders.setdefault((db, da), {})[b] = None
                    graph.add_edge(da, db)
            self._index = _DomainIndex(
                tuple(links),
                {pair: tuple(routers) for pair, routers in borders.items()},
                graph,
            )
        return self._index

    def interdomain_links(self) -> list[tuple[str, str]]:
        """All links whose endpoints belong to different domains."""
        return list(self._domain_index().links)

    def border_routers(self, domain: str, towards: str) -> tuple[str, ...]:
        """Edge routers of *domain* with a direct link into *towards*."""
        return self._domain_index().borders.get((domain, towards), ())

    def domain_graph(self) -> nx.Graph:
        """The domain-level adjacency graph (for BB path computation)."""
        return self._domain_index().graph.copy()

    # -- routing helpers -----------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Minimum-delay node path from *src* to *dst*."""
        for n in (src, dst):
            if n not in self._nodes:
                raise RoutingError(f"unknown node {n!r}")
        try:
            return nx.shortest_path(self.graph, src, dst, weight="delay_s")
        except nx.NetworkXNoPath:
            raise NoRouteError(f"no path from {src!r} to {dst!r}") from None

    def domain_path(self, src_domain: str, dst_domain: str) -> list[str]:
        """The sequence of domains a reservation must traverse."""
        g = self._domain_index().graph
        for d in (src_domain, dst_domain):
            if d not in g:
                raise RoutingError(f"unknown domain {d!r}")
        try:
            return nx.shortest_path(g, src_domain, dst_domain)
        except nx.NetworkXNoPath:
            raise NoRouteError(
                f"no domain-level path from {src_domain!r} to {dst_domain!r}"
            ) from None


def linear_domain_chain(
    domain_names: list[str],
    *,
    hosts_per_domain: int = 1,
    intra_capacity_mbps: float = 1000.0,
    inter_capacity_mbps: float = 155.0,
    intra_delay_s: float = 0.0005,
    inter_delay_s: float = 0.005,
) -> Topology:
    """Build the paper's standard testbed: a chain of domains, each with an
    ingress and egress edge router, one core router, and ``hosts_per_domain``
    hosts attached to the core.

    Topology per domain ``X``::

        hX0..hXn -- coreX -- edgeX.left / edgeX.right

    with ``edgeX.right -- edgeY.left`` links joining consecutive domains.
    Single-domain chains collapse the two edge routers into one.
    """
    if not domain_names:
        raise RoutingError("need at least one domain")
    if len(set(domain_names)) != len(domain_names):
        raise RoutingError("domain names must be unique")
    topo = Topology()
    for name in domain_names:
        core = f"core.{name}"
        topo.add_core_router(core, name)
        left = f"edge.{name}.left"
        right = f"edge.{name}.right"
        topo.add_edge_router(left, name)
        topo.add_link(core, left, capacity_mbps=intra_capacity_mbps, delay_s=intra_delay_s)
        if len(domain_names) > 1:
            topo.add_edge_router(right, name)
            topo.add_link(core, right, capacity_mbps=intra_capacity_mbps, delay_s=intra_delay_s)
        for i in range(hosts_per_domain):
            host = f"h{i}.{name}"
            topo.add_host(host, name)
            topo.add_link(host, core, capacity_mbps=intra_capacity_mbps, delay_s=intra_delay_s)
    for upstream, downstream in zip(domain_names, domain_names[1:]):
        topo.add_link(
            f"edge.{upstream}.right",
            f"edge.{downstream}.left",
            capacity_mbps=inter_capacity_mbps,
            delay_s=inter_delay_s,
        )
    return topo


def _build_domain_island(
    topo: Topology,
    name: str,
    *,
    hosts: int,
    intra_capacity_mbps: float,
    intra_delay_s: float,
) -> str:
    """Create one domain's interior (hosts + core); returns the core name.

    Border edge routers are added lazily per inter-domain link by the
    star/mesh builders.
    """
    core = f"core.{name}"
    topo.add_core_router(core, name)
    for i in range(hosts):
        host = f"h{i}.{name}"
        topo.add_host(host, name)
        topo.add_link(host, core, capacity_mbps=intra_capacity_mbps,
                      delay_s=intra_delay_s)
    return core


def _join_domains(
    topo: Topology,
    a: str,
    b: str,
    *,
    intra_capacity_mbps: float,
    intra_delay_s: float,
    inter_capacity_mbps: float,
    inter_delay_s: float,
) -> None:
    """Add a border edge router on each side and the inter-domain link."""
    edge_a = f"edge.{a}.to-{b}"
    edge_b = f"edge.{b}.to-{a}"
    topo.add_edge_router(edge_a, a)
    topo.add_edge_router(edge_b, b)
    topo.add_link(f"core.{a}", edge_a, capacity_mbps=intra_capacity_mbps,
                  delay_s=intra_delay_s)
    topo.add_link(f"core.{b}", edge_b, capacity_mbps=intra_capacity_mbps,
                  delay_s=intra_delay_s)
    topo.add_link(edge_a, edge_b, capacity_mbps=inter_capacity_mbps,
                  delay_s=inter_delay_s)


def star_domains(
    hub: str,
    leaves: list[str],
    *,
    hosts_per_domain: int = 1,
    intra_capacity_mbps: float = 1000.0,
    inter_capacity_mbps: float = 155.0,
    intra_delay_s: float = 0.0005,
    inter_delay_s: float = 0.005,
) -> Topology:
    """An ISP-hub topology: every leaf domain peers only with *hub*.

    The common 2001 deployment shape — stub domains buying transit from
    one backbone (ESnet/Abilene); any leaf-to-leaf reservation crosses
    exactly three domains.
    """
    if not leaves:
        raise RoutingError("a star needs at least one leaf")
    names = [hub] + leaves
    if len(set(names)) != len(names):
        raise RoutingError("domain names must be unique")
    topo = Topology()
    for name in names:
        _build_domain_island(
            topo, name, hosts=hosts_per_domain,
            intra_capacity_mbps=intra_capacity_mbps, intra_delay_s=intra_delay_s,
        )
    for leaf in leaves:
        _join_domains(
            topo, hub, leaf,
            intra_capacity_mbps=intra_capacity_mbps, intra_delay_s=intra_delay_s,
            inter_capacity_mbps=inter_capacity_mbps, inter_delay_s=inter_delay_s,
        )
    return topo


def mesh_domains(
    names: list[str],
    *,
    hosts_per_domain: int = 1,
    intra_capacity_mbps: float = 1000.0,
    inter_capacity_mbps: float = 155.0,
    intra_delay_s: float = 0.0005,
    inter_delay_s: float = 0.005,
) -> Topology:
    """A full mesh: every pair of domains peers directly.

    With a mesh, every reservation is two domains end to end; useful for
    isolating per-hop protocol costs from path-length effects.
    """
    if len(names) < 2:
        raise RoutingError("a mesh needs at least two domains")
    if len(set(names)) != len(names):
        raise RoutingError("domain names must be unique")
    topo = Topology()
    for name in names:
        _build_domain_island(
            topo, name, hosts=hosts_per_domain,
            intra_capacity_mbps=intra_capacity_mbps, intra_delay_s=intra_delay_s,
        )
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            _join_domains(
                topo, a, b,
                intra_capacity_mbps=intra_capacity_mbps,
                intra_delay_s=intra_delay_s,
                inter_capacity_mbps=inter_capacity_mbps,
                inter_delay_s=inter_delay_s,
            )
    return topo
