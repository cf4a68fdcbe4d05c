"""Unit tests for the admission-plane defenses (repro.bb.defense)."""

import pytest

from repro.bb.defense import (
    DefensePolicy,
    DomainDefense,
    PROTECTED_OPERATIONS,
    ReplayGuard,
    TokenBucket,
)
from repro.core.testbed import build_linear_testbed
from repro.errors import (
    DefenseError,
    OverloadShedError,
    QuotaExceededError,
    RateLimitedError,
    ReplayRejectedError,
)
from repro.obs import metrics as obs_metrics


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(3.0, 1.0, now=0.0)
        assert all(bucket.take(0.0) for _ in range(3))
        assert not bucket.take(0.0)

    def test_refills_from_modelled_time(self):
        bucket = TokenBucket(2.0, 0.5, now=0.0)
        bucket.take(0.0)
        bucket.take(0.0)
        assert not bucket.take(0.0)
        # 2 seconds at 0.5/s refills one token.
        assert bucket.take(2.0)
        assert not bucket.take(2.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(2.0, 10.0, now=0.0)
        assert bucket.take(100.0)
        assert bucket.take(100.0)
        assert not bucket.take(100.0)

    def test_time_moving_backwards_skips_refill(self):
        bucket = TokenBucket(1.0, 1.0, now=10.0)
        assert bucket.take(10.0)
        assert not bucket.take(5.0)


class TestReplayGuard:
    def test_first_seen_passes_second_raises(self):
        guard = ReplayGuard(60.0, 16)
        guard.check(b"digest-1", 0.0)
        with pytest.raises(ReplayRejectedError):
            guard.check(b"digest-1", 1.0)
        assert guard.rejected == 1

    def test_window_expiry_readmits(self):
        guard = ReplayGuard(10.0, 16)
        guard.check(b"digest-1", 0.0)
        # Inside the window: replay.
        with pytest.raises(ReplayRejectedError):
            guard.check(b"digest-1", 9.0)
        # Past the window: the digest was pruned, so it is fresh again.
        guard.check(b"digest-1", 25.0)

    def test_capacity_bound_evicts_oldest(self):
        guard = ReplayGuard(1e9, 4)
        for i in range(8):
            guard.check(f"digest-{i}".encode(), float(i))
        assert len(guard) <= 4
        # The oldest digests were evicted, so they pass again...
        guard.check(b"digest-0", 100.0)
        # ...while the newest are still remembered.
        with pytest.raises(ReplayRejectedError):
            guard.check(b"digest-7", 100.0)

    def test_forget_allows_legitimate_retransmission(self):
        guard = ReplayGuard(60.0, 16)
        guard.check(b"digest-1", 0.0)
        guard.forget(b"digest-1")
        guard.check(b"digest-1", 1.0)


class TestAdmitSignal:
    def test_rate_limit_trips_and_meters(self):
        policy = DefensePolicy(peer_burst=2.0, peer_rate_per_s=0.0)
        defense = DomainDefense(policy, domain="B")
        defense.admit_signal(peer="mallory", now=0.0)
        defense.admit_signal(peer="mallory", now=0.0)
        with pytest.raises(RateLimitedError):
            defense.admit_signal(peer="mallory", now=0.0)
        assert defense.stats.rate_limited == 1
        assert defense.stats.total == 1

        # The metric counts the gate's deny decision on the real path.
        with obs_metrics.use_registry() as registry:
            testbed = build_linear_testbed(["A", "B"])
            armed = testbed.arm_defenses(policy)
            codes = [
                testbed.hop_by_hop.process_ingress(
                    "B", f"junk {i}".encode(), peer="mallory", at_time=0.0,
                ).reason_code
                for i in range(3)
            ]
        assert codes[-1] == "rate_limited"
        counter = registry.get("defense_rejections_total")
        assert counter.value(
            domain="B", kind="rate_limited", reason_code="rate_limited"
        ) == 1 == armed["B"].stats.rate_limited
        assert counter.total() == armed["B"].stats.total == 1

    def test_buckets_are_per_peer(self):
        defense = DomainDefense(
            DefensePolicy(peer_burst=1.0, peer_rate_per_s=0.0)
        )
        defense.admit_signal(peer="mallory", now=0.0)
        with pytest.raises(RateLimitedError):
            defense.admit_signal(peer="mallory", now=0.0)
        # A different peer has its own (full) bucket.
        defense.admit_signal(peer="alice", now=0.0)

    def test_domain_class_peer_gets_looser_bucket(self):
        policy = DefensePolicy(
            peer_burst=1.0, peer_rate_per_s=0.0,
            domain_peer_burst=4.0, domain_peer_rate_per_s=0.0,
        )
        defense = DomainDefense(policy)
        # A domain-class peer (contracted SLA neighbour aggregating many
        # users) rides the larger bucket.
        for _ in range(4):
            defense.admit_signal(peer="BB-A", now=0.0, peer_kind="domain")
        with pytest.raises(RateLimitedError):
            defense.admit_signal(peer="BB-A", now=0.0, peer_kind="domain")
        # A user-class peer is clamped to the small one.
        defense.admit_signal(peer="mallory", now=0.0)
        with pytest.raises(RateLimitedError):
            defense.admit_signal(peer="mallory", now=0.0)

    def test_replay_rejected_inside_window(self):
        defense = DomainDefense(DefensePolicy(replay_window_s=60.0))
        defense.admit_signal(peer="p", now=0.0, envelope_digest=b"d1")
        with pytest.raises(ReplayRejectedError):
            defense.admit_signal(peer="p", now=1.0, envelope_digest=b"d1")
        assert defense.stats.replay_rejected == 1

    def test_rate_limit_runs_before_replay_guard(self):
        # The cheapest check rejects first: an empty bucket raises
        # RateLimitedError even for a replayed digest.
        defense = DomainDefense(
            DefensePolicy(peer_burst=1.0, peer_rate_per_s=0.0)
        )
        defense.admit_signal(peer="p", now=0.0, envelope_digest=b"d1")
        with pytest.raises(RateLimitedError):
            defense.admit_signal(peer="p", now=0.0, envelope_digest=b"d1")

    def test_shed_past_watermark_spares_protected_operations(self):
        policy = DefensePolicy(
            peer_burst=100.0, peer_rate_per_s=100.0,
            pending_watermark=3, shed_window_s=10.0,
        )
        defense = DomainDefense(policy)
        for i in range(3):
            defense.admit_signal(peer=f"p{i}", now=0.0)
        with pytest.raises(OverloadShedError):
            defense.admit_signal(peer="p-new", now=0.1)
        assert defense.stats.shed_overload == 1
        # Refresh/teardown/cancel/claim keep flowing under overload.
        for operation in sorted(PROTECTED_OPERATIONS):
            defense.admit_signal(
                peer=f"p-{operation}", now=0.1, operation=operation
            )

    def test_shed_window_drains(self):
        policy = DefensePolicy(
            peer_burst=100.0, peer_rate_per_s=100.0,
            pending_watermark=2, shed_window_s=1.0,
        )
        defense = DomainDefense(policy)
        defense.admit_signal(peer="a", now=0.0)
        defense.admit_signal(peer="b", now=0.0)
        with pytest.raises(OverloadShedError):
            defense.admit_signal(peer="c", now=0.5)
        # The old arrivals age out of the window.
        defense.admit_signal(peer="c", now=2.0)

    def test_all_gate_rejections_are_defense_errors(self):
        defense = DomainDefense(
            DefensePolicy(peer_burst=1.0, peer_rate_per_s=0.0)
        )
        defense.admit_signal(peer="p", now=0.0)
        with pytest.raises(DefenseError):
            defense.admit_signal(peer="p", now=0.0)


class TestCheckQuota:
    def test_per_user_quota(self):
        defense = DomainDefense(DefensePolicy(per_user_quota=2), domain="B")
        defense.check_quota(
            user="u", upstream=None, user_count=1, ingress_count=0
        )
        with pytest.raises(QuotaExceededError):
            defense.check_quota(
                user="u", upstream=None, user_count=2, ingress_count=0
            )
        assert defense.stats.quota_exceeded == 1

    def test_per_ingress_quota(self):
        defense = DomainDefense(DefensePolicy(per_ingress_quota=4))
        defense.check_quota(
            user="u", upstream="A", user_count=0, ingress_count=3
        )
        with pytest.raises(QuotaExceededError):
            defense.check_quota(
                user="u", upstream="A", user_count=0, ingress_count=4
            )

    def test_no_upstream_skips_ingress_quota(self):
        defense = DomainDefense(DefensePolicy(per_ingress_quota=1))
        defense.check_quota(
            user="u", upstream=None, user_count=0, ingress_count=99
        )
