"""The concurrency pass over the real ``repro`` package.

This is the acceptance gate the CI job enforces: the committed tree has
no unsuppressed lock-order cycles and no unbaselined guarded-state
violations, and the graph contains the load-bearing edges we know the
code has (so a silently broken extractor cannot pass by finding
nothing).
"""

import threading

import pytest

from repro.analysis.concurrency import analyze_paths
from repro.analysis.concurrency.guarded import default_baseline_path


@pytest.fixture(scope="module")
def report():
    return analyze_paths()


class TestRepoIsClean:
    def test_no_findings_with_committed_baseline(self, report):
        assert report.clean, "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}"
            for f in report.findings
        )

    def test_no_lock_order_cycles(self, report):
        assert report.graph.cycles() == []

    def test_committed_baseline_is_empty(self):
        # The tree currently needs no exemptions; if one is ever added,
        # update this expectation alongside its justification in
        # docs/STATIC_ANALYSIS.md.
        path = default_baseline_path()
        assert path.exists()
        from repro.analysis.concurrency.guarded import Baseline

        baseline = Baseline.load(path)
        assert not baseline.rep120
        assert not baseline.rep121


class TestGraphSanity:
    """The extractor really sees the locking the code is known to do."""

    def test_discovers_the_major_locks(self, report):
        keys = {node.key for node in report.graph.nodes()}
        for expected in (
            "repro.bb.broker.BandwidthBroker._lock",
            "repro.bb.admission.AdmissionController._lock",
            "repro.bb.admission.CapacitySchedule._lock",
            "repro.bb.reservations.ReservationTable._lock",
            "repro.core.channel.SecureChannel._lock",
            "repro.core.channel.ChannelRegistry._lock",
            "repro.obs.metrics.MetricsRegistry._lock",
            "repro.faults.injector.FaultInjector._lock",
        ):
            assert expected in keys

    def test_broker_lock_orders_before_its_dependencies(self, report):
        broker = "repro.bb.broker.BandwidthBroker._lock"
        for inner in (
            "repro.bb.admission.AdmissionController._lock",
            "repro.bb.reservations.ReservationTable._lock",
            "repro.obs.metrics.MetricsRegistry._lock",
            "repro.faults.injector.FaultInjector._lock",
            # Through obs.decisions.record, which binds its three stores
            # with one tuple assignment.
            "repro.obs.events.EventLog._lock",
            "repro.obs.audit.ledger.DecisionLedger._lock",
        ):
            assert report.graph.has_edge(broker, inner), inner

    def test_broker_reentry_is_modelled(self, report):
        # claim/refresh re-enter the broker RLock through public
        # methods; that must be a re-entry, never a self-edge.
        broker = "repro.bb.broker.BandwidthBroker._lock"
        assert not report.graph.has_edge(broker, broker)


class TestChannelLockingRegressions:
    """The fixes REP121 prompted in ``repro.core.channel``."""

    def _channel(self):
        from repro.core.channel import SecureChannel
        from repro.core.testbed import build_linear_testbed

        tb = build_linear_testbed(["A", "B"])
        a = tb.brokers["A"]
        b = tb.brokers["B"]
        return SecureChannel(a, b), a, b

    def test_counter_snapshot_is_consistent(self):
        channel, a, _ = self._channel()
        channel.transmit(a.dn, object())
        assert channel.counter_snapshot() == (1, 0, 0)
        channel.reset_counters()
        assert channel.counter_snapshot() == (0, 0, 0)
        assert channel.last_delay_s == 0.0

    def test_transmit_timed_returns_per_delivery_delay(self):
        channel, a, _ = self._channel()
        _, delay = channel.transmit_timed(a.dn, object())
        assert delay == 0.0

    def test_registry_totals_use_snapshots(self):
        from repro.core.channel import ChannelRegistry
        from repro.core.testbed import build_linear_testbed

        tb = build_linear_testbed(["A", "B"])
        a, b = tb.brokers["A"], tb.brokers["B"]
        registry = ChannelRegistry()
        channel = registry.connect(a, b)
        channel.transmit(a.dn, object())
        channel.transmit(b.dn, object())
        assert registry.total_messages() == 2
        registry.reset_counters()
        assert registry.total_messages() == 0
        assert channel.counter_snapshot() == (0, 0, 0)

    def test_concurrent_transmits_do_not_tear_counters(self):
        channel, a, b = self._channel()
        n, per_thread = 8, 50

        def send(sender):
            for _ in range(per_thread):
                channel.transmit(sender, object())

        threads = [
            threading.Thread(target=send, args=(a.dn if i % 2 else b.dn,))
            for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert channel.counter_snapshot()[0] == n * per_thread

    def test_injector_op_count_is_locked_read(self):
        from repro.faults.injector import FaultInjector, FaultPlan, TargetKind

        injector = FaultInjector(FaultPlan(()))
        injector.channel_transmit("A|B", object())
        assert injector.op_count(TargetKind.CHANNEL, "A|B") == 1
