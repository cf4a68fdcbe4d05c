"""Each repo-specific rule: fires on the violation, quiet on the idiom."""

import textwrap

from repro.analysis.framework import check_source
from repro.analysis.rules import (
    BareExceptionRule,
    GlobalRandomRule,
    MutableDefaultRule,
    ObsGuardRule,
    ProvenanceBypassRule,
    RawTimerRule,
    SaltedHashSeedRule,
    SecretExposureRule,
    StrictAnnotationsRule,
    TelemetryClockRule,
    UnboundedRetryRule,
    UncodedDenialRule,
    WallClockRule,
)


def lint(source, rule, module="repro.net.test"):
    return check_source(
        textwrap.dedent(source), module=module, rules=[rule]
    )


class TestWallClock:
    def test_flags_time_time(self):
        findings = lint(
            """
            import time
            def f():
                return time.time()
            """,
            WallClockRule,
        )
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_resolves_from_import_alias(self):
        findings = lint(
            """
            from time import time as wall
            stamp = wall()
            """,
            WallClockRule,
        )
        assert len(findings) == 1

    def test_flags_datetime_now(self):
        findings = lint(
            """
            import datetime
            t = datetime.datetime.now()
            """,
            WallClockRule,
        )
        assert len(findings) == 1

    def test_monotonic_timers_allowed(self):
        # perf_counter cannot express a time of day; the obs layer uses it
        # to meter elapsed cost.
        findings = lint(
            """
            import time
            start = time.perf_counter()
            tick = time.monotonic()
            """,
            WallClockRule,
        )
        assert findings == []

    def test_scoped_to_simulation_packages(self):
        src = """
        import time
        t = time.time()
        """
        assert lint(src, WallClockRule, module="repro.analysis.x") == []
        assert lint(src, WallClockRule, module="repro.bb.x") != []


class TestGlobalRandom:
    def test_flags_module_level_calls(self):
        findings = lint(
            """
            import random
            x = random.random()
            y = random.choice([1, 2])
            """,
            GlobalRandomRule,
        )
        assert len(findings) == 2

    def test_injected_rng_is_fine(self):
        findings = lint(
            """
            import random
            def f(rng: random.Random) -> float:
                return rng.random()
            r = random.Random(42)
            """,
            GlobalRandomRule,
        )
        assert findings == []


class TestBareException:
    def test_flags_generic_raises(self):
        findings = lint(
            """
            def f():
                raise ValueError("bad")
            def g():
                raise Exception
            """,
            BareExceptionRule,
        )
        assert [f.line for f in findings] == [3, 5]

    def test_repro_errors_are_fine(self):
        findings = lint(
            """
            from repro.errors import PolicySyntaxError
            def f():
                raise PolicySyntaxError("bad token")
            """,
            BareExceptionRule,
        )
        assert findings == []

    def test_reraise_without_exc_is_fine(self):
        findings = lint(
            """
            def f():
                try:
                    g()
                except KeyError:
                    raise
            """,
            BareExceptionRule,
        )
        assert findings == []


class TestSecretExposure:
    def test_flags_secret_in_fstring(self):
        findings = lint(
            """
            msg = f"key is {private_key}"
            """,
            SecretExposureRule,
        )
        assert len(findings) == 1
        assert "private_key" in findings[0].message

    def test_flags_secret_attribute_in_log_call(self):
        findings = lint(
            """
            logger.info("loaded %s", self.signing_key)
            """,
            SecretExposureRule,
        )
        assert len(findings) == 1

    def test_attribute_chain_checks_rendered_leaf_only(self):
        # `private.scheme` renders a scheme name, not the key.
        findings = lint(
            """
            msg = f"scheme {private.scheme!r} unsupported"
            """,
            SecretExposureRule,
        )
        assert findings == []

    def test_leaf_attribute_still_caught(self):
        findings = lint(
            """
            logger.debug("%s", bundle.private_key)
            """,
            SecretExposureRule,
        )
        assert len(findings) == 1


class TestMutableDefault:
    def test_flags_literal_and_constructor_defaults(self):
        findings = lint(
            """
            def f(xs=[], mapping=dict()):
                pass
            """,
            MutableDefaultRule,
        )
        assert len(findings) == 2

    def test_none_and_tuple_defaults_are_fine(self):
        findings = lint(
            """
            def f(xs=None, pair=(), *, flags=frozenset()):
                pass
            """,
            MutableDefaultRule,
        )
        assert findings == []


class TestObsGuard:
    def test_flags_chained_accessor_use(self):
        findings = lint(
            """
            from repro.obs import metrics as obs_metrics
            obs_metrics.get_registry().counter("x", "y").inc()
            """,
            ObsGuardRule,
        )
        assert len(findings) == 1
        assert "one-None-check" in findings[0].message

    def test_flags_chained_ledger_use(self):
        findings = lint(
            """
            from repro.obs.audit import ledger as obs_audit
            obs_audit.get_ledger().record("admit", domain="A")
            """,
            ObsGuardRule,
        )
        assert len(findings) == 1
        assert "get_ledger()" in findings[0].message

    def test_guarded_use_is_fine(self):
        findings = lint(
            """
            from repro.obs import metrics as obs_metrics
            registry = obs_metrics.get_registry()
            if registry is not None:
                registry.counter("x", "y").inc()
            """,
            ObsGuardRule,
        )
        assert findings == []


class TestSaltedHashSeed:
    def test_flags_hash_in_random_constructor(self):
        findings = lint(
            """
            import random
            rng = random.Random(hash(name) & 0xFFFF)
            """,
            SaltedHashSeedRule,
        )
        assert len(findings) == 1
        assert "PYTHONHASHSEED" in findings[0].message

    def test_flags_hash_in_seed_call(self):
        findings = lint(
            """
            def f(rng, label):
                rng.seed(hash(label))
            """,
            SaltedHashSeedRule,
        )
        assert len(findings) == 1

    def test_crc32_seed_is_fine(self):
        findings = lint(
            """
            import random
            import zlib
            rng = random.Random(zlib.crc32(name.encode()))
            """,
            SaltedHashSeedRule,
        )
        assert findings == []


class TestStrictAnnotations:
    def test_flags_missing_annotations_in_strict_packages(self):
        findings = lint(
            """
            def f(x, y=1):
                return x + y
            """,
            StrictAnnotationsRule,
            module="repro.core.test",
        )
        assert len(findings) == 1
        assert "x, y, return" in findings[0].message

    def test_self_and_cls_exempt(self):
        findings = lint(
            """
            class C:
                def method(self, x: int) -> int:
                    return x
                @classmethod
                def make(cls) -> "C":
                    return cls()
            """,
            StrictAnnotationsRule,
            module="repro.policy.test",
        )
        assert findings == []

    def test_varargs_need_annotations_too(self):
        findings = lint(
            """
            def f(*args, **kwargs) -> None:
                pass
            """,
            StrictAnnotationsRule,
            module="repro.crypto.test",
        )
        assert len(findings) == 1
        assert "*args" in findings[0].message
        assert "**kwargs" in findings[0].message

    def test_not_enforced_outside_strict_packages(self):
        findings = lint(
            """
            def f(x):
                return x
            """,
            StrictAnnotationsRule,
            module="repro.net.test",
        )
        assert findings == []


class TestNoqaIntegration:
    def test_justified_suppression_silences_one_rule(self):
        findings = lint(
            """
            import time
            t = time.time()  # repro: noqa[REP101] boot banner only
            u = time.time()
            """,
            WallClockRule,
        )
        assert [f.line for f in findings] == [4]


class TestUnboundedRetry:
    def test_flags_while_true_around_transmit(self):
        findings = lint(
            """
            def send(channel, dn, message):
                while True:
                    try:
                        return channel.transmit(dn, message)
                    except Exception:
                        pass
            """,
            UnboundedRetryRule,
        )
        assert len(findings) == 1
        assert "unbounded retry" in findings[0].message
        assert "transmit" in findings[0].message
        assert "MAX_ATTEMPTS" in findings[0].message

    def test_flags_while_true_around_admit(self):
        findings = lint(
            """
            def push(bb, request):
                while 1:
                    bb.admit(request)
            """,
            UnboundedRetryRule,
        )
        assert len(findings) == 1

    def test_attempt_counter_counts_as_a_bound(self):
        findings = lint(
            """
            def send(channel, dn, message, policy):
                attempt = 0
                while True:
                    attempt += 1
                    if attempt > policy.max_attempts:
                        raise RuntimeError("gave up")
                    try:
                        return channel.transmit(dn, message)
                    except Exception:
                        continue
            """,
            UnboundedRetryRule,
        )
        assert findings == []

    def test_deadline_check_counts_as_a_bound(self):
        findings = lint(
            """
            def send(channel, dn, message, deadline, clock):
                while True:
                    deadline.check(clock(), what="send")
                    try:
                        return channel.transmit(dn, message)
                    except Exception:
                        continue
            """,
            UnboundedRetryRule,
        )
        assert findings == []

    def test_non_retryable_loops_are_fine(self):
        findings = lint(
            """
            def pump(queue):
                while True:
                    item = queue.pop()
                    if item is None:
                        break
            """,
            UnboundedRetryRule,
        )
        assert findings == []

    def test_bounded_for_loop_is_fine(self):
        findings = lint(
            """
            def send(channel, dn, message, n):
                for _ in range(n):
                    try:
                        return channel.transmit(dn, message)
                    except Exception:
                        continue
            """,
            UnboundedRetryRule,
        )
        assert findings == []

    def test_conditional_while_is_fine(self):
        findings = lint(
            """
            def send(channel, dn, message, healthy):
                while healthy():
                    channel.transmit(dn, message)
            """,
            UnboundedRetryRule,
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = lint(
            """
            def send(channel, dn, message):
                while True:  # repro: noqa[REP109] bounded by the caller
                    channel.transmit(dn, message)
            """,
            UnboundedRetryRule,
        )
        assert findings == []


class TestRawTimer:
    def test_flags_perf_counter_outside_obs(self):
        findings = lint(
            """
            import time
            def f():
                t0 = time.perf_counter()
                return time.perf_counter() - t0
            """,
            RawTimerRule,
            module="repro.core.hopbyhop",
        )
        assert len(findings) == 2
        assert findings[0].rule == "REP110"
        assert "repro.obs.spans.phase()" in findings[0].message

    def test_resolves_from_import(self):
        findings = lint(
            """
            from time import monotonic
            def f():
                return monotonic()
            """,
            RawTimerRule,
            module="repro.bb.broker",
        )
        assert len(findings) == 1

    def test_obs_package_is_exempt(self):
        source = """
        import time
        def phase_clock():
            return time.perf_counter()
        """
        assert lint(source, RawTimerRule, module="repro.obs.spans") == []
        assert lint(source, RawTimerRule, module="repro.obs.perf.bench") == []
        # The same code outside repro.obs trips the rule.
        assert len(lint(source, RawTimerRule, module="repro.core.x")) == 1

    def test_noqa_escape(self):
        findings = lint(
            """
            import time
            def f():
                return time.perf_counter()  # repro: noqa[REP110] calibration
            """,
            RawTimerRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []

    def test_obs_helpers_are_the_idiom(self):
        findings = lint(
            """
            from repro.obs import spans as obs_spans
            def f():
                obs_spans.open_span("hop")
                obs_spans.phase("verify")
                obs_spans.close_span()
            """,
            RawTimerRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []


class TestProvenanceBypass:
    def test_flags_unrecorded_admit_outcome(self):
        findings = lint(
            """
            def admit(self, resv):
                return AdmitOutcome(True, resv)
            """,
            ProvenanceBypassRule,
            module="repro.bb.broker",
        )
        assert len(findings) == 1
        assert "AdmitOutcome" in findings[0].message
        assert "repro audit --reconcile" in findings[0].message

    def test_flags_unrecorded_make_denial(self):
        findings = lint(
            """
            from repro.core.messages import make_denial
            def deny(domain, reason, bb):
                return make_denial(
                    domain=domain, reason=reason,
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
            """,
            ProvenanceBypassRule,
            module="repro.core.hopbyhop",
        )
        assert len(findings) == 1
        assert "make_denial" in findings[0].message

    def test_broker_audit_call_satisfies_the_rule(self):
        findings = lint(
            """
            def admit(self, resv):
                self._audit("admit", resv, granted=True)
                return AdmitOutcome(True, resv)
            """,
            ProvenanceBypassRule,
            module="repro.bb.broker",
        )
        assert findings == []

    def test_the_decision_writer_satisfies_the_rule(self):
        findings = lint(
            """
            from repro.obs import decisions
            def deny(domain, reason, bb):
                decisions.record("deny", domain=domain, reason=reason)
                return make_denial(domain=domain, reason=reason)
            """,
            ProvenanceBypassRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []

    def test_record_decision_satisfies_the_rule(self):
        findings = lint(
            """
            from repro.obs.audit import ledger as obs_audit
            def deny(domain, reason, bb):
                obs_audit.record_decision(obs_audit.DecisionRecord(
                    obs_audit.RecordKind.DENY, domain=domain, reason=reason,
                ))
                return make_denial(domain=domain, reason=reason)
            """,
            ProvenanceBypassRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []

    def test_out_of_scope_modules_exempt(self):
        source = """
            def helper():
                return make_denial(domain="A", reason="test fixture")
        """
        assert lint(
            source, ProvenanceBypassRule, module="repro.core.testbed"
        ) == []
        assert lint(
            source, ProvenanceBypassRule, module="repro.core.hopbyhop"
        ) != []

    def test_noqa_escape(self):
        findings = lint(
            """
            def synthesize(domain, reason):
                return make_denial(domain=domain, reason=reason)  # repro: noqa[REP111] probe
            """,
            ProvenanceBypassRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []

    def test_shipping_code_is_clean(self):
        import pathlib

        import repro.bb.broker
        import repro.core.hopbyhop

        for mod in (repro.bb.broker, repro.core.hopbyhop):
            source = pathlib.Path(mod.__file__).read_text()
            assert check_source(
                source, module=mod.__name__, rules=[ProvenanceBypassRule]
            ) == []


class TestUncodedDenial:
    def test_flags_denial_without_reason_code(self):
        findings = lint(
            """
            def deny(domain, reason, bb):
                return make_denial(
                    domain=domain, reason=reason,
                    bb=bb.dn, bb_key=bb.keypair.private,
                )
            """,
            UncodedDenialRule,
            module="repro.core.hopbyhop",
        )
        assert len(findings) == 1
        assert "ReasonCode" in findings[0].message

    def test_flags_false_admit_outcome_without_code(self):
        findings = lint(
            """
            def admit(self, resv, exc):
                return AdmitOutcome(False, resv, reason=str(exc))
            """,
            UncodedDenialRule,
            module="repro.bb.broker",
        )
        assert len(findings) == 1

    def test_flags_rejected_ingress_report_without_code(self):
        findings = lint(
            """
            def reject(exc):
                return IngressReport(accepted=False, work_units=0.02)
            """,
            UncodedDenialRule,
            module="repro.core.hopbyhop",
        )
        assert len(findings) == 1

    def test_granted_outcomes_are_not_denials(self):
        findings = lint(
            """
            def admit(self, resv):
                return AdmitOutcome(True, resv)
            """,
            UncodedDenialRule,
            module="repro.bb.broker",
        )
        assert findings == []

    def test_reason_code_keyword_satisfies_the_rule(self):
        findings = lint(
            """
            def admit(self, resv, exc):
                self._audit("admit", resv, granted=False, reason=str(exc),
                            reason_code=ReasonCode.QUOTA_EXCEEDED)
                return AdmitOutcome(False, resv, reason=str(exc))
            """,
            UncodedDenialRule,
            module="repro.bb.broker",
        )
        assert findings == []

    def test_reason_code_for_satisfies_the_rule(self):
        findings = lint(
            """
            from repro.obs.events import reason_code_for
            def reject(exc):
                code = reason_code_for(exc)
                return IngressReport(
                    accepted=False, work_units=0.02,
                    reason=str(exc), reason_code=code.value,
                )
            """,
            UncodedDenialRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []

    def test_out_of_scope_modules_exempt(self):
        source = """
            def helper():
                return make_denial(domain="A", reason="test fixture")
        """
        assert lint(
            source, UncodedDenialRule, module="repro.core.testbed"
        ) == []
        assert lint(
            source, UncodedDenialRule, module="repro.bb.broker"
        ) != []

    def test_noqa_escape(self):
        findings = lint(
            """
            def synthesize(domain, reason):
                return make_denial(domain=domain, reason=reason)  # repro: noqa[REP112] probe
            """,
            UncodedDenialRule,
            module="repro.core.hopbyhop",
        )
        assert findings == []

    def test_shipping_code_is_clean(self):
        import pathlib

        import repro.bb.broker
        import repro.bb.defense
        import repro.core.hopbyhop

        for mod in (repro.bb.broker, repro.bb.defense, repro.core.hopbyhop):
            source = pathlib.Path(mod.__file__).read_text()
            assert check_source(
                source, module=mod.__name__, rules=[UncodedDenialRule]
            ) == []


class TestTelemetryClock:
    """REP113: the telemetry plane must take time from the caller."""

    SOURCE = """
    import time
    def sample():
        return time.time()
    """

    def test_flags_wall_clock_inside_telemetry(self):
        findings = lint(
            self.SOURCE,
            TelemetryClockRule,
            module="repro.obs.telemetry.recorder",
        )
        assert len(findings) == 1
        assert findings[0].rule == "REP113"
        assert "repro.obs.telemetry" in findings[0].message

    def test_flags_raw_timers_too(self):
        findings = lint(
            """
            from time import perf_counter
            def sample():
                return perf_counter()
            """,
            TelemetryClockRule,
            module="repro.obs.telemetry.alerts",
        )
        assert len(findings) == 1

    def test_quiet_outside_the_telemetry_package(self):
        # REP110 exempts repro.obs generally; REP113 narrows the ban
        # back onto the telemetry plane only.
        for module in ("repro.obs.perf.bench", "repro.core.hopbyhop"):
            assert lint(self.SOURCE, TelemetryClockRule,
                        module=module) == []

    def test_shipping_telemetry_code_is_clean(self):
        import pathlib

        import repro.obs.telemetry.alerts
        import repro.obs.telemetry.dashboard
        import repro.obs.telemetry.recorder
        import repro.obs.telemetry.series

        for mod in (
            repro.obs.telemetry.series,
            repro.obs.telemetry.recorder,
            repro.obs.telemetry.alerts,
            repro.obs.telemetry.dashboard,
        ):
            source = pathlib.Path(mod.__file__).read_text()
            assert check_source(
                source, module=mod.__name__, rules=[TelemetryClockRule]
            ) == []
