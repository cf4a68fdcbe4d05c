"""Tests for multi-domain topology construction and path queries."""

import pytest

from repro.errors import NoRouteError, RoutingError
from repro.net.topology import NodeKind, Topology, linear_domain_chain


class TestConstruction:
    def test_add_nodes_and_links(self):
        t = Topology()
        t.add_host("h1", "A")
        t.add_core_router("r1", "A")
        t.add_link("h1", "r1", capacity_mbps=100.0)
        assert t.node("h1").kind is NodeKind.HOST
        assert t.node("r1").is_router
        assert t.link_attrs("h1", "r1")["capacity_mbps"] == 100.0

    def test_duplicate_node_rejected(self):
        t = Topology()
        t.add_host("h1", "A")
        with pytest.raises(RoutingError):
            t.add_host("h1", "B")

    def test_link_to_unknown_node_rejected(self):
        t = Topology()
        t.add_host("h1", "A")
        with pytest.raises(RoutingError):
            t.add_link("h1", "ghost", capacity_mbps=10.0)

    def test_bad_link_attrs_rejected(self):
        t = Topology()
        t.add_host("h1", "A")
        t.add_host("h2", "A")
        with pytest.raises(RoutingError):
            t.add_link("h1", "h2", capacity_mbps=0.0)
        with pytest.raises(RoutingError):
            t.add_link("h1", "h2", capacity_mbps=1.0, delay_s=-1.0)

    def test_self_loop_rejected(self):
        """A link from a node to itself is no link: accepting one made
        the loop the domain's narrowest intra-domain link, so domain B
        below would admit at most 1 Mb/s."""
        t = linear_domain_chain(["A", "B", "C"])
        with pytest.raises(RoutingError, match="two distinct nodes"):
            t.add_link("core.B", "core.B", capacity_mbps=1)
        assert not t.graph.has_edge("core.B", "core.B")

    def test_unknown_node_lookup(self):
        with pytest.raises(RoutingError):
            Topology().node("nope")

    def test_contains(self):
        t = Topology()
        t.add_host("h1", "A")
        assert "h1" in t
        assert "h2" not in t


class TestLinearChain:
    def test_three_domain_chain(self):
        t = linear_domain_chain(["A", "B", "C"], hosts_per_domain=2)
        assert set(t.domains()) == {"A", "B", "C"}
        assert len(t.hosts_in_domain("A")) == 2
        assert t.node("core.B").kind is NodeKind.CORE_ROUTER
        assert t.node("edge.A.right").kind is NodeKind.EDGE_ROUTER

    def test_interdomain_links(self):
        t = linear_domain_chain(["A", "B", "C"])
        inter = t.interdomain_links()
        assert len(inter) == 2
        domains = {
            frozenset({t.node(a).domain, t.node(b).domain}) for a, b in inter
        }
        assert domains == {frozenset({"A", "B"}), frozenset({"B", "C"})}

    def test_border_routers(self):
        t = linear_domain_chain(["A", "B", "C"])
        assert t.border_routers("B", "A") == ("edge.B.left",)
        assert t.border_routers("B", "C") == ("edge.B.right",)
        assert t.border_routers("A", "C") == ()

    def test_single_domain(self):
        t = linear_domain_chain(["A"])
        assert t.domains() == ("A",)
        assert t.interdomain_links() == []

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            linear_domain_chain([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(RoutingError):
            linear_domain_chain(["A", "A"])


class TestPaths:
    def test_host_to_host_path_crosses_domains(self):
        t = linear_domain_chain(["A", "B", "C"])
        path = t.shortest_path("h0.A", "h0.C")
        assert path[0] == "h0.A"
        assert path[-1] == "h0.C"
        domains = [t.node(n).domain for n in path]
        # Domain sequence must be A+ B+ C+.
        assert domains == sorted(domains, key="ABC".index)
        assert {"A", "B", "C"} <= set(domains)

    def test_domain_path(self):
        t = linear_domain_chain(["A", "B", "C", "D"])
        assert t.domain_path("A", "D") == ["A", "B", "C", "D"]
        assert t.domain_path("B", "B") == ["B"]

    def test_no_route(self):
        t = Topology()
        t.add_host("h1", "A")
        t.add_host("h2", "B")
        with pytest.raises(NoRouteError):
            t.shortest_path("h1", "h2")

    def test_domain_path_unknown_domain(self):
        t = linear_domain_chain(["A", "B"])
        with pytest.raises(RoutingError):
            t.domain_path("A", "Z")

    def test_domain_graph(self):
        t = linear_domain_chain(["A", "B", "C"])
        g = t.domain_graph()
        assert set(g.nodes) == {"A", "B", "C"}
        assert g.has_edge("A", "B") and g.has_edge("B", "C")
        assert not g.has_edge("A", "C")
