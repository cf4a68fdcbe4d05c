"""Admission-plane defenses: rate limits, quotas, replay guard, shedding.

The paper closes the *single* misreservation attack (Figure 4) with
policed per-flow classification; a production broker fleet must also
survive *sustained* abuse — reservation flooding against one victim
domain, byzantine peers spraying malformed or replayed envelopes, and
squatters claiming tunnels they never reserved.  The flyover-reservation
literature (PAPERS.md) frames the common defense shape: keep the *cheap*
checks in front of the *expensive* ones, and bound every per-peer
resource.

This module is the local half of that shape — pure bookkeeping, driven
entirely by the modelled clock passed in by callers (REP101), with no
protocol imports so it slots under both :class:`~repro.bb.broker.
BandwidthBroker` (quotas) and the hop-by-hop engine (rate limits, replay,
shedding).  Four mechanisms, four typed rejections:

* **token-bucket per-peer signalling rate limits** —
  :class:`TokenBucket` per peer identity (the upstream domain at transit
  hops, the user DN at the source hop); an empty bucket raises
  :class:`~repro.errors.RateLimitedError` before any signature work;
* **per-user / per-ingress reservation quotas** — counts of live
  reservations per owner and per upstream peer, checked by the broker
  before its SLA/policy/capacity pipeline; exceeding either raises
  :class:`~repro.errors.QuotaExceededError`;
* **sliding-window replay guard** — envelope digest + first-seen
  timestamp; a digest seen again inside the window raises
  :class:`~repro.errors.ReplayRejectedError` *before signature
  verification is spent* (the whole point: a replayed RAR costs the
  attacker a send and the victim a dict lookup);
* **load shedding** — when the pending-signalling estimate passes the
  watermark, *new admissions* are shed
  (:class:`~repro.errors.OverloadShedError`) while refresh and teardown
  keep flowing, so an overloaded broker ages out gracefully instead of
  dropping the traffic that releases capacity.

Everything is deterministic: buckets refill from elapsed modelled time,
the replay window prunes by modelled time, and no call reads a wall
clock or global RNG.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.errors import (
    OverloadShedError,
    RateLimitedError,
    ReplayRejectedError,
    QuotaExceededError,
)
from repro.obs import metrics as obs_metrics

__all__ = [
    "DefensePolicy",
    "TokenBucket",
    "digest",
    "ReplayGuard",
    "DomainDefense",
    "DefenseStats",
]

#: Signalling operations the shed gate always lets through: they *free*
#: capacity or keep already-admitted state alive, and dropping them under
#: overload would convert congestion into leaked bandwidth.
PROTECTED_OPERATIONS = frozenset({"refresh", "teardown", "cancel", "claim"})


@dataclass(frozen=True)
class DefensePolicy:
    """Knobs for one domain's admission-plane defenses.

    The defaults are deliberately permissive for honest workloads (the
    survivability harness drives ~1 signal/s per honest user) while
    clamping the attack personas hard; operators tune them per SLA.
    """

    #: Token-bucket burst size per user-class peer (signals).
    peer_burst: float = 8.0
    #: Token-bucket refill rate per user-class peer (signals per
    #: modelled second).
    peer_rate_per_s: float = 2.0
    #: Burst / rate for *domain-class* peers (contracted SLA neighbours).
    #: A domain peer aggregates many users' traffic that was already
    #: gated at its own ingress, so its bucket must sit well above any
    #: single user's — otherwise one throttled aggregate link becomes
    #: collateral damage for every honest user behind it.
    domain_peer_burst: float = 32.0
    domain_peer_rate_per_s: float = 8.0
    #: Live (pending/granted/active) reservations allowed per user.
    per_user_quota: int = 8
    #: Live reservations allowed per ingress (upstream) peer.
    per_ingress_quota: int = 64
    #: How long an envelope digest stays "seen" (modelled seconds).
    replay_window_s: float = 120.0
    #: Hard bound on remembered digests (oldest-first eviction).
    replay_capacity: int = 4096
    #: Arrivals inside :attr:`shed_window_s` beyond which new admissions
    #: are shed (refresh/teardown always pass).
    pending_watermark: int = 32
    #: Window over which the pending-signalling estimate is taken.
    shed_window_s: float = 1.0


class TokenBucket:
    """A deterministic token bucket driven by the modelled clock.

    ``take`` refills from the time elapsed since the previous call and
    consumes one token; an empty bucket returns ``False``.  Time moving
    backwards (never happens under the simulator, but cheap to guard)
    just skips the refill.
    """

    def __init__(self, burst: float, rate_per_s: float, *, now: float = 0.0):
        self.burst = burst
        self.rate_per_s = rate_per_s
        self.tokens = burst
        self._last = now

    def take(self, now: float, amount: float = 1.0) -> bool:
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate_per_s
            )
            self._last = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


def digest(data: bytes) -> bytes:
    """Content digest the replay guard is keyed on (sha256, truncated
    for compactness)."""
    return hashlib.sha256(data).digest()[:16]


class ReplayGuard:
    """Sliding-window duplicate-envelope detector.

    Keyed on the envelope's canonical-bytes digest; the stored value is
    the first-seen modelled timestamp.  ``check`` runs *before* signature
    verification, so a replayed RAR is rejected for the cost of one
    ordered-dict lookup.  The window is pruned by modelled time and hard
    bounded by ``capacity`` (oldest first), so a long campaign cannot
    grow the guard without limit.
    """

    def __init__(self, window_s: float, capacity: int):
        self.window_s = window_s
        self.capacity = capacity
        #: digest -> first-seen modelled time, insertion-ordered (and
        #: therefore time-ordered: the clock never runs backwards).
        self._seen: OrderedDict[bytes, float] = OrderedDict()
        self.rejected = 0

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        while self._seen:
            _, first_seen = next(iter(self._seen.items()))
            if first_seen >= horizon:
                break
            self._seen.popitem(last=False)
        while len(self._seen) > self.capacity:
            self._seen.popitem(last=False)

    def check(self, digest: bytes, now: float) -> None:
        """Raise :class:`ReplayRejectedError` if *digest* was already
        seen inside the window; otherwise record it."""
        self._prune(now)
        first_seen = self._seen.get(digest)
        if first_seen is not None:
            self.rejected += 1
            raise ReplayRejectedError(
                f"envelope digest {digest.hex()[:12]} already processed at "
                f"t={first_seen:.3f} (replay window {self.window_s:.0f}s)"
            )
        self._seen[digest] = now
        while len(self._seen) > self.capacity:
            self._seen.popitem(last=False)

    def forget(self, digest: bytes) -> None:
        """Drop a recorded digest (used when processing the original
        failed *before* any state changed, so a legitimate retransmission
        of the same bytes must not be mistaken for a replay)."""
        self._seen.pop(digest, None)

    def __len__(self) -> int:
        return len(self._seen)


@dataclass
class DefenseStats:
    """Rejection counters for one domain (independent of obs state)."""

    rate_limited: int = 0
    quota_exceeded: int = 0
    replay_rejected: int = 0
    shed_overload: int = 0

    @property
    def total(self) -> int:
        return (self.rate_limited + self.quota_exceeded
                + self.replay_rejected + self.shed_overload)


class DomainDefense:
    """One domain's defense state: buckets, quotas, replay guard, shed.

    Attached to a broker as ``broker.defense``; the hop-by-hop engine
    runs :meth:`admit_signal` at the top of per-hop processing (before
    verification), and the broker runs :meth:`check_quota` at the top of
    its admission pipeline.
    """

    def __init__(self, policy: DefensePolicy | None = None, *,
                 domain: str = ""):
        self.policy = policy if policy is not None else DefensePolicy()
        self.domain = domain
        self.replay_guard = ReplayGuard(
            self.policy.replay_window_s, self.policy.replay_capacity
        )
        self._buckets: dict[str, TokenBucket] = {}
        #: Modelled arrival times of recent signals (the pending-queue
        #: estimate for the shed watermark).
        self._arrivals: deque[float] = deque()
        self.stats = DefenseStats()

    # -- bookkeeping ---------------------------------------------------------------

    def _meter(self, kind: str) -> None:
        registry = obs_metrics.get_registry()
        if registry is not None:
            # ``kind`` doubles as the stable ReasonCode value
            # (rate_limited / quota_exceeded / replay_rejected /
            # shed_overload); exporting it under both labels keeps the
            # legacy ``kind`` selector working while per-attack
            # breakdowns join against event/audit reason codes.
            registry.counter(
                "defense_rejections_total",
                "Admission-plane defense rejections by domain and kind",
            ).inc(domain=self.domain, kind=kind, reason_code=kind)
            if kind == "replay_rejected":
                registry.counter(
                    "replay_guard_rejections_total",
                    "Envelopes rejected by the replay guard before "
                    "signature verification",
                ).inc(domain=self.domain, reason_code=kind)

    def _bucket_for(self, peer: str, now: float, kind: str) -> TokenBucket:
        bucket = self._buckets.get(peer)
        if bucket is None:
            if kind == "domain":
                bucket = TokenBucket(
                    self.policy.domain_peer_burst,
                    self.policy.domain_peer_rate_per_s, now=now,
                )
            else:
                bucket = TokenBucket(
                    self.policy.peer_burst, self.policy.peer_rate_per_s,
                    now=now,
                )
            self._buckets[peer] = bucket
        return bucket

    # -- the signalling gate (runs before verification) ----------------------------

    def admit_signal(
        self,
        *,
        peer: str,
        now: float,
        operation: str = "reserve",
        envelope_digest: bytes | None = None,
        peer_kind: str = "user",
    ) -> None:
        """The pre-verification gate, cheapest check first.

        Raises :class:`RateLimitedError`, :class:`ReplayRejectedError`,
        or :class:`OverloadShedError`; returns silently when the signal
        may proceed to (expensive) verification.  Order matters: the
        rate limiter is a dict lookup and two float ops, the replay
        guard one more lookup, the shed estimate a deque prune — all
        far cheaper than one signature verification.  ``peer_kind``
        picks the bucket class: ``"domain"`` for contracted SLA
        neighbours, ``"user"`` (the default) for everything else.
        """
        bucket = self._bucket_for(peer, now, peer_kind)
        if not bucket.take(now):
            self.stats.rate_limited += 1
            self._meter("rate_limited")
            raise RateLimitedError(
                f"{self.domain}: peer {peer!r} exceeded "
                f"{bucket.rate_per_s:g}/s signalling rate "
                f"(burst {bucket.burst:g})"
            )
        if envelope_digest is not None:
            try:
                self.replay_guard.check(envelope_digest, now)
            except ReplayRejectedError:
                self.stats.replay_rejected += 1
                self._meter("replay_rejected")
                raise
        # check() raises on replay, so from here the signal is fresh.
        horizon = now - self.policy.shed_window_s
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()
        if (operation not in PROTECTED_OPERATIONS
                and len(self._arrivals) >= self.pending_watermark):
            self.stats.shed_overload += 1
            self._meter("shed_overload")
            raise OverloadShedError(
                f"{self.domain}: pending signalling "
                f"{len(self._arrivals)} past watermark "
                f"{self.pending_watermark} — shedding new admissions "
                "(refresh/teardown still serviced)"
            )
        self._arrivals.append(now)

    @property
    def pending_watermark(self) -> int:
        return self.policy.pending_watermark

    # -- reservation quotas (run by the broker's admission pipeline) ---------------

    def check_quota(
        self,
        *,
        user: str,
        upstream: str | None,
        user_count: int,
        ingress_count: int,
    ) -> None:
        """Raise :class:`QuotaExceededError` when admitting one more
        reservation would exceed the per-user or per-ingress quota.
        The caller supplies the live counts (excluding the candidate);
        this module never reaches into broker tables."""
        if user_count >= self.policy.per_user_quota:
            self.stats.quota_exceeded += 1
            self._meter("quota_exceeded")
            raise QuotaExceededError(
                f"{self.domain}: user {user!r} holds {user_count} live "
                f"reservations (quota {self.policy.per_user_quota})"
            )
        if (upstream is not None
                and ingress_count >= self.policy.per_ingress_quota):
            self.stats.quota_exceeded += 1
            self._meter("quota_exceeded")
            raise QuotaExceededError(
                f"{self.domain}: ingress {upstream!r} carries "
                f"{ingress_count} live reservations "
                f"(quota {self.policy.per_ingress_quota})"
            )
