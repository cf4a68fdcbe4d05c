"""The topology's domain index against the scans it replaced
(``tests/net/_oracle.py``).

For every builder shape and a multi-homed chain, and every ordered pair
of domains, the indexed ``interdomain_links``, ``border_routers``,
``domain_path`` and ``domain_graph`` must equal the O(E) scans, order
included; a link or node added after a query must be seen by the next
one.
"""

import networkx as nx
import pytest

from repro.errors import NoRouteError, RoutingError
from repro.net.topology import (
    Topology,
    linear_domain_chain,
    mesh_domains,
    star_domains,
)

from tests.net._oracle import (
    scan_border_routers,
    scan_domain_graph,
    scan_domain_path,
    scan_interdomain_links,
)

def _multihomed() -> Topology:
    """A chain whose domains also peer through a second pair of border
    routers, so one ``(domain, towards)`` pair has several, in order."""
    topo = linear_domain_chain(["A", "B", "C"])
    topo.add_link("edge.B.left", "edge.A.left", capacity_mbps=10.0)
    topo.add_link("edge.A.left", "edge.C.right", capacity_mbps=10.0)
    topo.add_link("core.B", "edge.A.right", capacity_mbps=10.0)
    return topo


_SHAPES = {
    **{
        f"linear{n}": (lambda n=n: linear_domain_chain(
            [chr(ord("A") + i) for i in range(n)]))
        for n in range(2, 9)
    },
    "star": lambda: star_domains("ISP", ["A", "B", "C", "D"], hosts_per_domain=2),
    "mesh": lambda: mesh_domains(["A", "B", "C", "D", "E"]),
    "multihomed": _multihomed,
}


def _same_graph(got: nx.Graph, want: nx.Graph) -> None:
    assert list(got.nodes) == list(want.nodes)
    assert list(got.edges) == list(want.edges)


def _path_or_error(query, *args):
    try:
        return ("ok", query(*args))
    except (RoutingError, NoRouteError) as exc:
        return (type(exc).__name__, str(exc))


def _assert_matches_scans(topo: Topology) -> None:
    assert topo.interdomain_links() == scan_interdomain_links(topo)
    _same_graph(topo.domain_graph(), scan_domain_graph(topo))
    domains = topo.domains()
    for domain in domains:
        for towards in domains:
            assert topo.border_routers(domain, towards) == scan_border_routers(
                topo, domain, towards
            ), (domain, towards)
            assert _path_or_error(topo.domain_path, domain, towards) == (
                _path_or_error(scan_domain_path, topo, domain, towards)
            ), (domain, towards)
    assert _path_or_error(topo.domain_path, domains[0], "nowhere") == (
        _path_or_error(scan_domain_path, topo, domains[0], "nowhere")
    )


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_index_equals_the_scans(shape):
    _assert_matches_scans(_SHAPES[shape]())


def test_border_routers_keep_the_scan_order():
    """``graph.edges`` order (by node, then neighbour), not link order."""
    topo = _multihomed()
    assert topo.border_routers("A", "B") == ("edge.A.left", "edge.A.right")
    assert topo.border_routers("B", "A") == ("edge.B.left", "core.B")


def test_a_link_added_after_a_query_is_seen():
    topo = linear_domain_chain(["A", "B", "C"])
    _assert_matches_scans(topo)
    assert topo.border_routers("A", "C") == ()
    topo.add_link("edge.A.right", "edge.C.left", capacity_mbps=10.0)
    _assert_matches_scans(topo)
    assert topo.border_routers("A", "C") == ("edge.A.right",)
    assert topo.domain_path("A", "C") == ["A", "C"]


def test_a_domain_added_after_a_query_is_seen():
    topo = linear_domain_chain(["A", "B"])
    _assert_matches_scans(topo)
    topo.add_core_router("core.Z", "Z")
    _assert_matches_scans(topo)
    with pytest.raises(NoRouteError):
        topo.domain_path("A", "Z")
    topo.add_edge_router("edge.Z.left", "Z")
    topo.add_link("core.Z", "edge.Z.left", capacity_mbps=10.0)
    topo.add_link("edge.B.right", "edge.Z.left", capacity_mbps=10.0)
    _assert_matches_scans(topo)
    assert topo.domain_path("A", "Z") == ["A", "B", "Z"]


def test_answers_are_copies():
    """Editing what a query returned leaves the next answer unchanged."""
    topo = linear_domain_chain(["A", "B", "C"])
    topo.interdomain_links().clear()
    topo.domain_graph().add_edge("A", "C")
    _assert_matches_scans(topo)
    assert topo.domain_path("A", "C") == ["A", "B", "C"]
