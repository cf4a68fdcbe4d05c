"""Reference implementations the topology index is tested against.

Each function is the O(E) scan over ``topology.graph.edges`` that
:class:`repro.net.topology.Topology` ran on every query before it kept
an index, unchanged apart from taking the topology as an argument.  The
indexed answers must equal these, order included, for every query.
"""

from typing import Any

import networkx as nx

from repro.errors import NoRouteError, RoutingError


def scan_interdomain_links(topo: Any) -> list[tuple[str, str]]:
    """All links whose endpoints belong to different domains."""
    out = []
    for a, b in topo.graph.edges:
        if topo.node(a).domain != topo.node(b).domain:
            out.append((a, b))
    return out


def scan_border_routers(topo: Any, domain: str, towards: str) -> tuple[str, ...]:
    """Edge routers of *domain* with a direct link into *towards*."""
    result = []
    for a, b in scan_interdomain_links(topo):
        for inside, outside in ((a, b), (b, a)):
            if (
                topo.node(inside).domain == domain
                and topo.node(outside).domain == towards
            ):
                result.append(inside)
    return tuple(dict.fromkeys(result))


def scan_domain_graph(topo: Any) -> nx.Graph:
    """The domain-level adjacency graph."""
    g = nx.Graph()
    g.add_nodes_from(topo.domains())
    for a, b in scan_interdomain_links(topo):
        g.add_edge(topo.node(a).domain, topo.node(b).domain)
    return g


def scan_domain_path(topo: Any, src_domain: str, dst_domain: str) -> list[str]:
    """The sequence of domains a reservation must traverse."""
    g = scan_domain_graph(topo)
    for d in (src_domain, dst_domain):
        if d not in g:
            raise RoutingError(f"unknown domain {d!r}")
    try:
        return nx.shortest_path(g, src_domain, dst_domain)
    except nx.NetworkXNoPath:
        raise NoRouteError(
            f"no domain-level path from {src_domain!r} to {dst_domain!r}"
        ) from None
