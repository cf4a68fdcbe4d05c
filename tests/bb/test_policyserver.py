"""Tests for the policy-server entity: credential verification + decisions."""

import random

import pytest

from repro.bb.policyserver import PolicyServer, VerifiedInfo
from repro.bb.reservations import ReservationRequest
from repro.crypto.capability import ProxyCredential, delegate
from repro.crypto.dn import DN
from repro.crypto.keys import SimulatedScheme
from repro.policy.cas import CommunityAuthorizationServer
from repro.policy.groupserver import GroupServer
from repro.policy.language import compile_policy

ALICE = DN.make("Grid", "DomainA", "Alice")
BOB = DN.make("Grid", "DomainA", "Bob")
BB_B = DN.make("Grid", "DomainB", "BB-B")

POLICY_B = """
If Group = Atlas
    If BW <= 10Mb/s
        Return GRANT
If Issued_by(Capability) = ESnet
    If BW <= 10Mb/s
        Return GRANT
Return DENY
"""


def request(rate=10.0, **kwargs):
    defaults = dict(
        source_host="h0.A",
        destination_host="h0.C",
        source_domain="A",
        destination_domain="C",
        rate_mbps=rate,
        start=0.0,
        end=3600.0,
    )
    defaults.update(kwargs)
    return ReservationRequest(**defaults)


@pytest.fixture()
def group_server(rng):
    gs = GroupServer(DN.make("Grid", "HEP", "GS"), rng=rng, scheme="simulated")
    gs.add_member("Atlas", ALICE)
    return gs


@pytest.fixture()
def cas(rng):
    c = CommunityAuthorizationServer("ESnet", rng=rng, scheme="simulated")
    c.grant(ALICE, ["member"])
    return c


@pytest.fixture()
def server(group_server, cas):
    return PolicyServer(
        "B",
        compile_policy(POLICY_B, name="BB-B"),
        group_servers=[group_server],
        trusted_communities={cas.name: cas.public_key},
        domain_attributes={"te.excess": "downgrade"},
    )


class TestVerifyCredentials:
    def test_good_assertion(self, server, group_server):
        a = group_server.assert_membership(ALICE, "Atlas")
        v = server.verify_credentials(user=ALICE, assertions=[a])
        assert v.groups == {"Atlas"}
        assert v.rejected == ()

    def test_assertion_for_wrong_subject(self, server, group_server):
        a = group_server.assert_membership(ALICE, "Atlas")
        v = server.verify_credentials(user=BOB, assertions=[a])
        assert v.groups == frozenset()
        assert any("not the requestor" in r for r in v.rejected)

    def test_assertion_from_unknown_issuer(self, server, rng):
        rogue = GroupServer(DN.make("X", "Y", "GS"), rng=rng, scheme="simulated")
        rogue.add_member("Atlas", ALICE)
        a = rogue.assert_membership(ALICE, "Atlas")
        v = server.verify_credentials(user=ALICE, assertions=[a])
        assert v.groups == frozenset()
        assert any("unknown issuer" in r for r in v.rejected)

    def test_tampered_assertion(self, server, group_server):
        a = group_server.assert_membership(ALICE, "Atlas")
        forged = a.with_tampered_attribute("group", "VIP")
        v = server.verify_credentials(user=ALICE, assertions=[forged])
        assert v.groups == frozenset()

    def test_good_capability_chain(self, server, cas):
        cred = cas.grid_login(ALICE)
        v = server.verify_credentials(
            user=ALICE, capability_certs=[cred.certificate]
        )
        assert v.capabilities == {"ESnet:member"}
        assert v.capability_issuers == {"ESnet"}

    def test_delegated_chain(self, server, cas, rng):
        cred = cas.grid_login(ALICE)
        bb_keys = SimulatedScheme().generate(rng)
        cert_a = delegate(
            cred,
            delegate_subject=BB_B,
            delegate_public_key=bb_keys.public,
            extra_restrictions=["valid-for:RAR-7"],
        )
        v = server.verify_credentials(
            user=ALICE, capability_certs=[cred.certificate, cert_a]
        )
        assert v.capability_issuers == {"ESnet"}
        assert v.capability_restrictions == {"valid-for:RAR-7"}

    def test_untrusted_community(self, group_server, rng):
        other_cas = CommunityAuthorizationServer("Rogue", rng=rng, scheme="simulated")
        other_cas.grant(ALICE, ["member"])
        server = PolicyServer(
            "B", compile_policy(POLICY_B), group_servers=[group_server]
        )
        cred = other_cas.grid_login(ALICE)
        v = server.verify_credentials(
            user=ALICE, capability_certs=[cred.certificate]
        )
        assert v.capability_issuers == frozenset()
        assert any("rejected" in r for r in v.rejected)

    def test_expired_capability(self, server, cas):
        cred = cas.grid_login(ALICE, at_time=0.0, validity_s=10.0)
        v = server.verify_credentials(
            user=ALICE, capability_certs=[cred.certificate], at_time=100.0
        )
        assert v.capability_issuers == frozenset()


class TestDecide:
    def test_grant_via_group(self, server):
        v = VerifiedInfo(user=ALICE, groups=frozenset({"Atlas"}))
        d = server.decide(request(), v)
        assert d.granted
        assert ("te.excess", "downgrade") in d.modifications

    def test_grant_via_capability(self, server):
        v = VerifiedInfo(user=ALICE, capability_issuers=frozenset({"ESnet"}))
        assert server.decide(request(), v).granted

    def test_deny_over_cap(self, server):
        v = VerifiedInfo(user=ALICE, groups=frozenset({"Atlas"}))
        assert not server.decide(request(rate=11.0), v).granted

    def test_deny_without_credentials(self, server):
        assert not server.decide(request(), VerifiedInfo(user=ALICE)).granted

    def test_no_modifications_on_deny(self, server):
        d = server.decide(request(), VerifiedInfo(user=ALICE))
        assert d.modifications == ()

    def test_decision_counter(self, server):
        v = VerifiedInfo(user=ALICE)
        server.decide(request(), v)
        server.decide(request(), v)
        assert server.decisions == 2

    def test_time_of_day_mapping(self, group_server):
        server = PolicyServer(
            "A",
            compile_policy(
                "If Time > 8am and Time < 5pm\n    Return GRANT\nReturn DENY"
            ),
        )
        v = VerifiedInfo(user=ALICE)
        # 9 hours into a simulated day.
        assert server.decide(request(), v, at_time=9 * 3600.0).granted
        # 9pm.
        assert not server.decide(request(), v, at_time=21 * 3600.0).granted
        # Next day, 9am again (wraps modulo 24h).
        assert server.decide(request(), v, at_time=33 * 3600.0).granted

    def test_avail_bw_plumbed(self):
        server = PolicyServer(
            "A", compile_policy("If BW <= Avail_BW\n    Return GRANT\nReturn DENY")
        )
        v = VerifiedInfo(user=ALICE)
        assert server.decide(request(rate=10.0), v,
                             available_bandwidth_mbps=20.0).granted
        assert not server.decide(request(rate=30.0), v,
                                 available_bandwidth_mbps=20.0).granted
