"""Tests for the bandwidth broker's local decision pipeline."""

import pytest

from repro.bb.admission import AdmissionController
from repro.bb.broker import BandwidthBroker
from repro.bb.policyserver import PolicyServer, VerifiedInfo
from repro.bb.reservations import ReservationRequest, ReservationState
from repro.bb.sla import SLA, SLS
from repro.crypto.dn import DN
from repro.net.packet import DSCP
from repro.obs.audit import use_ledger
from repro.policy.language import compile_policy

ALICE = DN.make("Grid", "DomainA", "Alice")

OPEN_POLICY = "If BW <= 100Mb/s\n    Return GRANT\nReturn DENY"


def make_broker(domain="B", policy=OPEN_POLICY, intra=1000.0, **resources):
    admission = AdmissionController()
    admission.add_resource("intra", intra)
    for name, cap in resources.items():
        admission.add_resource(name.replace("_", ":"), cap)
    server = PolicyServer(domain, compile_policy(policy, name=domain))
    return BandwidthBroker(
        domain,
        policy_server=server,
        admission=admission,
        scheme="simulated",
    )


def request(rate=10.0, start=0.0, end=3600.0, **kwargs):
    defaults = dict(
        source_host="h0.A",
        destination_host="h0.C",
        source_domain="A",
        destination_domain="C",
        rate_mbps=rate,
        start=start,
        end=end,
    )
    defaults.update(kwargs)
    return ReservationRequest(**defaults)


VERIFIED = VerifiedInfo(user=ALICE)


class TestPeering:
    def test_register_sla_directions(self):
        bb = make_broker("B")
        bb.register_sla(SLA("A", "B"))
        bb.register_sla(SLA("B", "C"))
        assert "A" in bb.slas_in
        assert "C" in bb.slas_out
        assert bb.peer_domains() == {"A", "C"}

    def test_unrelated_sla_rejected(self):
        bb = make_broker("B")
        from repro.errors import SLAError

        with pytest.raises(SLAError):
            bb.register_sla(SLA("X", "Y"))

    def test_default_identity(self):
        bb = make_broker("B")
        assert bb.dn == DN.make("Grid", "B", "BB-B")


class TestAdmit:
    def test_grant_books_capacity(self):
        bb = make_broker("B", ingress_A=155.0, egress_C=155.0)
        bb.register_sla(SLA("A", "B"))
        bb.register_sla(SLA("B", "C"))
        outcome = bb.admit(request(), VERIFIED, upstream="A", downstream="C")
        assert outcome.granted
        assert outcome.reservation.state is ReservationState.GRANTED
        assert bb.admission.schedule("ingress:A").load_at(100.0) == 10.0
        assert bb.admission.schedule("intra").load_at(100.0) == 10.0
        assert bb.admission.schedule("egress:C").load_at(100.0) == 10.0

    def test_source_domain_books_no_ingress(self):
        bb = make_broker("A", egress_B=155.0)
        bb.register_sla(SLA("A", "B"))
        outcome = bb.admit(request(), VERIFIED, upstream=None, downstream="B")
        assert outcome.granted
        assert bb.admission.schedule("egress:B").load_at(100.0) == 10.0

    def test_destination_domain_books_no_egress(self):
        bb = make_broker("C", ingress_B=155.0)
        bb.register_sla(SLA("B", "C"))
        outcome = bb.admit(request(), VERIFIED, upstream="B", downstream=None)
        assert outcome.granted
        assert bb.admission.schedule("ingress:B").load_at(100.0) == 10.0

    def test_missing_upstream_sla_denied(self):
        bb = make_broker("B")
        outcome = bb.admit(request(), VERIFIED, upstream="A", downstream=None)
        assert not outcome.granted
        assert "no SLA" in outcome.reason
        assert outcome.reservation.state is ReservationState.DENIED

    def test_sla_rate_violation_denied(self):
        bb = make_broker("B")
        bb.register_sla(SLA("A", "B", slss={DSCP.EF: SLS(max_rate_mbps=5.0)}))
        outcome = bb.admit(request(rate=10.0), VERIFIED, upstream="A")
        assert not outcome.granted
        assert "exceeds SLA" in outcome.reason

    def test_policy_denial(self):
        bb = make_broker("B", policy="Return DENY")
        outcome = bb.admit(request(), VERIFIED)
        assert not outcome.granted
        assert outcome.decision is not None
        assert outcome.reservation.denial_reason

    def test_capacity_denial(self):
        bb = make_broker("B", intra=15.0)
        first = bb.admit(request(rate=10.0), VERIFIED)
        assert first.granted
        second = bb.admit(request(rate=10.0), VERIFIED)
        assert not second.granted
        assert "available" in second.reason

    def test_capacity_freed_after_cancel(self):
        bb = make_broker("B", intra=15.0)
        first = bb.admit(request(rate=10.0), VERIFIED)
        bb.cancel(first.reservation.handle)
        assert first.reservation.state is ReservationState.CANCELLED
        second = bb.admit(request(rate=10.0), VERIFIED)
        assert second.granted

    def test_disjoint_intervals_share_capacity(self):
        bb = make_broker("B", intra=15.0)
        assert bb.admit(request(rate=10.0, start=0.0, end=100.0), VERIFIED).granted
        assert bb.admit(request(rate=10.0, start=100.0, end=200.0), VERIFIED).granted

    def test_avail_bw_policy_integration(self):
        bb = make_broker(
            "B", policy="If BW <= Avail_BW\n    Return GRANT\nReturn DENY",
            intra=25.0,
        )
        assert bb.admit(request(rate=20.0), VERIFIED).granted
        # 5 Mb/s left; policy itself now denies a 10 Mb/s ask.
        outcome = bb.admit(request(rate=10.0), VERIFIED)
        assert not outcome.granted
        assert "Return DENY" in outcome.reason


class StubConfigurator:
    def __init__(self):
        self.flows = []
        self.torn = []
        self.ingress = {}

    def provision_flow(self, domain, reservation):
        self.flows.append((domain, reservation.handle))

    def teardown_flow(self, domain, reservation):
        self.torn.append((domain, reservation.handle))

    def provision_ingress(self, domain, upstream, service_class, total_rate_mbps):
        self.ingress[(domain, upstream, service_class)] = total_rate_mbps


class TestClaimAndEdgeConfig:
    def make_with_configurator(self, domain="C"):
        bb = make_broker(domain, ingress_B=155.0)
        bb.register_sla(SLA("B", domain))
        bb.configurator = StubConfigurator()
        return bb

    def test_claim_activates_and_configures_ingress(self):
        bb = self.make_with_configurator()
        outcome = bb.admit(request(), VERIFIED, upstream="B")
        resv = bb.claim(outcome.reservation.handle)
        assert resv.state is ReservationState.ACTIVE
        assert bb.configurator.ingress[("C", "B", DSCP.EF)] == 10.0
        # Transit reservations do not get per-flow classifiers here.
        assert bb.configurator.flows == []

    def test_source_claim_provisions_flow(self):
        bb = make_broker("A", egress_B=155.0)
        bb.register_sla(SLA("A", "B"))
        bb.configurator = StubConfigurator()
        outcome = bb.admit(request(), VERIFIED, downstream="B")
        bb.claim(outcome.reservation.handle)
        assert bb.configurator.flows == [("A", outcome.reservation.handle)]

    def test_ingress_aggregates_sum_and_shrink(self):
        bb = self.make_with_configurator()
        o1 = bb.admit(request(rate=10.0), VERIFIED, upstream="B")
        o2 = bb.admit(request(rate=20.0), VERIFIED, upstream="B")
        bb.claim(o1.reservation.handle)
        bb.claim(o2.reservation.handle)
        assert bb.configurator.ingress[("C", "B", DSCP.EF)] == 30.0
        bb.cancel(o2.reservation.handle)
        assert bb.configurator.ingress[("C", "B", DSCP.EF)] == 10.0

    def test_validate_handle(self):
        bb = self.make_with_configurator()
        outcome = bb.admit(request(start=100.0, end=200.0), VERIFIED, upstream="B")
        assert bb.validate_handle(outcome.reservation.handle)
        assert not bb.validate_handle(outcome.reservation.handle, at_time=50.0)
        assert not bb.validate_handle("ghost")

    def test_linked_validator_registration(self):
        bb = self.make_with_configurator()
        bb.register_linked_validator("cpu", lambda handle: handle == "CPU-1")
        assert bb._linked_validator("cpu", "CPU-1")
        assert not bb._linked_validator("cpu", "CPU-2")
        # Unregistered kinds fall back to the local network table.
        assert not bb._linked_validator("disk", "D-1")


class TestAuditLog:
    """The broker's decision trail is the ledger's records for its domain."""

    def test_admit_grant_logged(self):
        bb = make_broker("B", ingress_A=155.0)
        bb.register_sla(SLA("A", "B"))
        with use_ledger() as ledger:
            outcome = bb.admit(request(), VERIFIED, at_time=42.0, upstream="A")
        assert outcome.granted
        entry = ledger.records(domain="B")[-1]
        assert entry.kind.value == "admit"
        assert entry.granted
        assert entry.at_time == 42.0
        assert entry.handle == outcome.reservation.handle
        assert entry.rate_mbps == 10.0
        assert entry.upstream == "A"
        assert "Alice" in entry.user

    def test_denials_logged_with_reason(self):
        bb = make_broker("B", policy="Return DENY")
        with use_ledger() as ledger:
            outcome = bb.admit(request(), VERIFIED)
        assert not outcome.granted
        entry = ledger.records(domain="B")[-1]
        assert not entry.granted
        assert entry.reason == outcome.reason

    def test_lifecycle_events_logged(self):
        bb = make_broker("B")
        with use_ledger() as ledger:
            outcome = bb.admit(request(), VERIFIED)
            bb.claim(outcome.reservation.handle)
            bb.cancel(outcome.reservation.handle)
        events = [e.kind.value for e in ledger.records(domain="B")]
        assert events == ["admit", "claim", "cancel"]

    def test_sla_violation_logged(self):
        bb = make_broker("B")
        with use_ledger() as ledger:
            outcome = bb.admit(request(), VERIFIED, upstream="A")
        assert not outcome.granted
        assert "no SLA" in ledger.records(domain="B")[-1].reason

    def test_capacity_denial_logged(self):
        bb = make_broker("B", intra=5.0)
        with use_ledger() as ledger:
            outcome = bb.admit(request(rate=10.0), VERIFIED)
        assert not outcome.granted
        assert "available" in ledger.records(domain="B")[-1].reason
