"""Correlation coverage: EVERY record kind the fabric can emit must carry
a correlation ID that joins it to its originating trace.  The test is
parametrized over the full ``RecordKind`` enum via a scenario table, so
adding a new kind without teaching this test how to produce it fails
loudly instead of silently shipping uncorrelated records."""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.errors import ReproError, TunnelError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind
from repro.obs import events, spans
from repro.obs.events import ReasonCode, RecordKind


def inject(testbed, *specs):
    testbed.attach_injector(FaultInjector(FaultPlan(tuple(specs), seed=1)))


# ---------------------------------------------------------------------------
# One scenario per RecordKind: run under an event log, return that log.
# ---------------------------------------------------------------------------


def scenario_grant_lifecycle():
    """ADMIT at every hop, then CLAIM and CANCEL everywhere."""
    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert outcome.granted
    testbed.hop_by_hop.claim(outcome)
    testbed.hop_by_hop.cancel(outcome)


def scenario_deny_and_release():
    """DENY at the refusing hop, RELEASE of the partial path."""
    testbed = build_linear_testbed(["A", "B", "C"])
    testbed.set_policy("C", "Return DENY")
    user = testbed.add_user("A", "Alice")
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert not outcome.granted


def scenario_trust_failure():
    """On-path tampering makes downstream verification fail."""
    from repro.core.messages import F_RES_SPEC

    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    channel = testbed.channels.between(
        testbed.brokers["B"].dn, testbed.brokers["C"].dn
    )

    def inflate(message):
        spec = message.get(F_RES_SPEC)
        if spec is None:
            inner = message.get("inner_rar")
            if inner is not None:
                return message.with_tampered_field("inner_rar", inflate(inner))
            return message
        return message.with_tampered_field(
            F_RES_SPEC, spec.with_attributes(injected=True)
        )

    channel.tamper_hook = inflate
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert not outcome.granted


def scenario_revocation():
    """A user's certificate revoked at its CA after a grant (REVOKE);
    the next request is refused at A."""
    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    ca = testbed.domain_cas["A"]
    for broker in testbed.brokers.values():
        broker.truststore.add_revocation_checker(ca.is_revoked)
    assert testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=5.0,
    ).granted
    ca.revoke(user.certificate.serial)
    assert not testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=5.0,
    ).granted


def scenario_transient_fault_and_retry():
    """One dropped message: FAULT from the injector, RETRY from the
    signalling engine, grant survives."""
    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    inject(
        testbed,
        FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.DROP, ops=1),
    )
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert outcome.granted and outcome.retries >= 1


def scenario_breaker_opens():
    """A persistently dead link burns the retry budget until the
    circuit breaker opens (BREAKER transition events)."""
    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    inject(
        testbed,
        FaultSpec(TargetKind.CHANNEL, "B|C", FaultKind.DROP, ops=None),
    )
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert not outcome.granted


def scenario_unwind_failure():
    """A denial unwinds the partial path, but one broker's cancel
    fails: UNWIND_FAILED, with soft state left to reclaim."""
    testbed = build_linear_testbed(["A", "B", "C"], soft_state_ttl_s=60.0)
    testbed.set_policy("C", "Return DENY")
    user = testbed.add_user("A", "Alice")
    broker_b = testbed.brokers["B"]
    real_cancel = broker_b.cancel

    def refuse(handle, **kwargs):
        raise ReproError("simulated dead broker during unwind")

    broker_b.cancel = refuse
    try:
        outcome = testbed.reserve(
            user, source="A", destination="C", bandwidth_mbps=10.0,
        )
    finally:
        broker_b.cancel = real_cancel
    assert not outcome.granted


def scenario_soft_state_expiry():
    """An unrefreshed lease lapses; the sweep emits EXPIRE events."""
    testbed = build_linear_testbed(["A", "B"], soft_state_ttl_s=60.0)
    user = testbed.add_user("A", "Alice")
    outcome = testbed.reserve(
        user, source="A", destination="B", bandwidth_mbps=10.0,
    )
    assert outcome.granted
    assert testbed.sweep_soft_state(61.0) == 2


def scenario_tunnel_fallback():
    """A broken direct channel degrades a tunnel flow to per-flow
    signalling (FALLBACK)."""
    testbed = build_linear_testbed(["A", "B", "C", "D"])
    user = testbed.add_user("A", "Alice")
    request = testbed.make_request(
        source="A", destination="D", bandwidth_mbps=50.0, duration=7200.0,
    )
    tunnel, outcome = testbed.tunnels.establish(user, request)
    assert outcome.granted
    inject(
        testbed,
        FaultSpec(TargetKind.CHANNEL, "A|D", FaultKind.DROP, ops=None),
    )
    alloc, _, _ = testbed.tunnels.allocate_flow(tunnel.tunnel_id, user, 10.0)
    assert alloc.via == "per-flow"


def scenario_alert_firing():
    """A monitored backlog breach walks the full alert lifecycle; every
    transition is an ALERT event carrying the incident correlation id
    (minted at PENDING, so even a blip's events stitch)."""
    from repro.obs.telemetry import AlertEngine, AlertRule, AlertSeverity
    from repro.obs.telemetry.series import SeriesStore

    engine = AlertEngine([AlertRule(
        name="backlog", kind="threshold",
        metric="work_queue_backlog_s",
        severity=AlertSeverity.CRITICAL,
        group_by="domain", threshold=2.0, for_s=0.0,
    )])
    store = SeriesStore()
    store.record("work_queue_backlog_s", 1.0, 5.0,
                 labels={"domain": "A"})
    engine.step(store, 1.0)
    store.record("work_queue_backlog_s", 2.0, 0.1,
                 labels={"domain": "A"})
    engine.step(store, 2.0)


#: Which scenario produces each kind.  A kind missing here makes the
#: parametrized test fail with a KeyError — the desired tripwire.
SCENARIOS = {
    RecordKind.ADMIT: scenario_grant_lifecycle,
    RecordKind.CLAIM: scenario_grant_lifecycle,
    RecordKind.CANCEL: scenario_grant_lifecycle,
    RecordKind.DENY: scenario_deny_and_release,
    RecordKind.RELEASE: scenario_deny_and_release,
    # The denied outcome of a request no hop could verify.
    RecordKind.OUTCOME: scenario_trust_failure,
    RecordKind.FAULT: scenario_transient_fault_and_retry,
    RecordKind.RETRY: scenario_transient_fault_and_retry,
    RecordKind.BREAKER: scenario_breaker_opens,
    RecordKind.UNWIND_FAILED: scenario_unwind_failure,
    RecordKind.EXPIRE: scenario_soft_state_expiry,
    RecordKind.FALLBACK: scenario_tunnel_fallback,
    RecordKind.ALERT: scenario_alert_firing,
    RecordKind.REVOKE: scenario_revocation,
}

#: Kinds stated outside any request: an authority revokes on its own
#: schedule, so there is no trace to join.
UNCORRELATED = {RecordKind.REVOKE}


class TestEveryKindCarriesACorrelationId:
    @pytest.mark.parametrize("kind", list(RecordKind), ids=lambda k: k.value)
    def test_kind_emitted_and_correlated(self, kind):
        scenario = SCENARIOS[kind]  # KeyError = untestable new kind
        with events.use_event_log() as log:
            scenario()
        emitted = log.records(kind)
        assert emitted, f"scenario produced no {kind.value} events"
        for event in emitted if kind not in UNCORRELATED else ():
            assert event.correlation_id, (
                f"{kind.value} event has no correlation id: {event}"
            )

    def test_scenario_table_covers_the_enum(self):
        assert set(SCENARIOS) == set(RecordKind)

    @pytest.mark.parametrize(
        "kind", [RecordKind.DENY, RecordKind.UNWIND_FAILED],
        ids=lambda k: k.value,
    )
    def test_every_refusal_event_carries_a_reason_code(self, kind):
        """Whatever the scenario table makes of these kinds says *why*
        in the machine-readable vocabulary, not only in prose."""
        for scenario in dict.fromkeys(SCENARIOS.values()):
            with events.use_event_log() as log:
                scenario()
            for event in log.records(kind):
                assert event.reason_code, (
                    f"{scenario.__name__}: {kind.value} event without a "
                    f"reason code: {event}"
                )


    def test_trust_failure_is_a_deny_with_its_reason_code(self):
        """A message no hop can verify is refused like any other
        request: one DENY, naming the hop whose check failed, coded
        ``trust_failure``."""
        with events.use_event_log() as log:
            scenario_trust_failure()
        denials = log.records(RecordKind.DENY)
        assert [(e.domain, e.reason_code) for e in denials] == [
            ("C", ReasonCode.TRUST_FAILURE.value)
        ]
        assert denials[0].reason.startswith("trust verification failed")
        assert denials[0].correlation_id

    def test_breaker_scenario_ends_in_one_link_unreachable_denial(self):
        """The request the dead link killed is refused in the event log
        too, not only in the ledger: one DENY, signed for by C's
        upstream but naming C, with the machine-readable cause."""
        with events.use_event_log() as log:
            scenario_breaker_opens()
        denials = log.records(RecordKind.DENY)
        assert [(e.domain, e.reason_code) for e in denials] == [
            ("C", ReasonCode.LINK_UNREACHABLE.value)
        ]


class TestExpireJoinsTheOriginatingTrace:
    def test_expire_carries_the_admission_correlation_id(self):
        """The sweep runs outside any request scope; EXPIRE must still
        carry the ID minted when the reservation was admitted."""
        with events.use_event_log() as log, spans.use_tracer():
            testbed = build_linear_testbed(["A", "B"], soft_state_ttl_s=60.0)
            user = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                user, source="A", destination="B", bandwidth_mbps=10.0,
            )
            assert outcome.granted
            testbed.sweep_soft_state(61.0)
        expires = log.records(RecordKind.EXPIRE)
        assert len(expires) == 2
        assert {e.correlation_id for e in expires} == {outcome.correlation_id}

    def test_reservation_stashes_the_correlation_id(self):
        with events.use_event_log():
            testbed = build_linear_testbed(["A", "B"])
            user = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                user, source="A", destination="B", bandwidth_mbps=10.0,
            )
        for domain in "AB":
            resv = testbed.brokers[domain].reservations.get(
                outcome.handles[domain]
            )
            assert resv.correlation_id == outcome.correlation_id


class TestBackgroundWorkOpensSpans:
    def test_soft_state_sweep_is_traced(self):
        with spans.use_tracer() as tracer:
            testbed = build_linear_testbed(["A", "B"], soft_state_ttl_s=60.0)
            user = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                user, source="A", destination="B", bandwidth_mbps=10.0,
            )
            assert outcome.granted
            testbed.sweep_soft_state(61.0)
        sweeps = [s for s in tracer if s.name == "sweep"]
        # One sweep span per broker, each in a trace of its own.
        assert {s.attributes["domain"] for s in sweeps} == {"A", "B"}
        for sweep in sweeps:
            assert sweep.finished
            assert sweep.attributes["reclaimed"] == 1
            assert sweep.trace_id != outcome.correlation_id

    def test_tunnel_fallback_is_traced_and_linked(self):
        with spans.use_tracer() as tracer, events.use_event_log() as log:
            scenario_tunnel_fallback()
        fallbacks = [s for s in tracer if s.name == "tunnel_fallback"]
        assert len(fallbacks) == 1
        span = fallbacks[0]
        assert span.finished and span.status == "ok"
        # The degradation span links to the per-flow reservation's own
        # trace, and the FALLBACK event shares the degradation's ID.
        assert span.attributes["link"].startswith("req-")
        fallback_events = log.records(RecordKind.FALLBACK)
        assert len(fallback_events) == 1
        assert fallback_events[0].correlation_id == span.trace_id

    def test_denied_fallback_span_marks_error(self):
        with spans.use_tracer() as tracer:
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            user = testbed.add_user("A", "Alice")
            request = testbed.make_request(
                source="A", destination="D", bandwidth_mbps=50.0,
                duration=7200.0,
            )
            tunnel, outcome = testbed.tunnels.establish(user, request)
            assert outcome.granted
            testbed.set_policy("B", "Return DENY")
            inject(
                testbed,
                FaultSpec(TargetKind.CHANNEL, "A|D", FaultKind.DROP,
                          ops=None),
            )
            with pytest.raises(TunnelError, match="fallback"):
                testbed.tunnels.allocate_flow(tunnel.tunnel_id, user, 10.0)
        span = next(s for s in tracer if s.name == "tunnel_fallback")
        assert span.status == "error"
        assert span.attributes["error"]
