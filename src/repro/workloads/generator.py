"""Synthetic reservation workloads.

The paper evaluates its architecture qualitatively; the natural
*quantitative* follow-up (and the standard bandwidth-broker evaluation in
the literature it cites, e.g. the advance-reservation scheduling work
[21, 22]) is an offered-load sweep: Poisson arrivals of reservation
requests with random rates, durations, and endpoints, measuring the
acceptance ratio and link utilization as load grows.  This module
generates such workloads deterministically and drives a testbed through
them on the simulation clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bb.reservations import ReservationRequest
from repro.core.testbed import Testbed
from repro.errors import SimulationError

__all__ = ["WorkloadSpec", "WorkloadResult", "ReservationWorkload"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of an arrival process of reservations.

    ``arrival_rate_per_s`` — Poisson arrival intensity;
    ``mean_duration_s`` — exponential holding time;
    ``rate_choices_mbps`` — requested bandwidths, drawn uniformly;
    ``pairs`` — (source, destination) domain pairs, drawn uniformly.
    """

    arrival_rate_per_s: float
    mean_duration_s: float
    rate_choices_mbps: tuple[float, ...]
    pairs: tuple[tuple[str, str], ...]
    horizon_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s <= 0 or self.mean_duration_s <= 0:
            raise SimulationError("arrival rate and duration must be positive")
        if not self.rate_choices_mbps or not self.pairs:
            raise SimulationError("need at least one rate and one pair")

    def offered_load_mbps(self) -> float:
        """Mean offered load in Mb/s (arrival rate x mean rate x mean hold
        time gives Mb/s-seconds per second)."""
        mean_rate = sum(self.rate_choices_mbps) / len(self.rate_choices_mbps)
        return self.arrival_rate_per_s * self.mean_duration_s * mean_rate


@dataclass
class WorkloadResult:
    """Aggregate outcome of one workload run."""

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_by_domain: dict[str, int] = field(default_factory=dict)
    accepted_mbps_s: float = 0.0
    offered_mbps_s: float = 0.0

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted / self.offered if self.offered else 0.0

    @property
    def carried_fraction(self) -> float:
        """Accepted bandwidth-time over offered bandwidth-time."""
        return (
            self.accepted_mbps_s / self.offered_mbps_s
            if self.offered_mbps_s
            else 0.0
        )


class ReservationWorkload:
    """Drives a testbed through a :class:`WorkloadSpec`."""

    def __init__(self, testbed: Testbed, spec: WorkloadSpec,
                 *, rng: random.Random | None = None):
        self.testbed = testbed
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(0xB0B)
        self.result = WorkloadResult()
        self._users: dict[str, object] = {}

    def _user_for(self, domain: str):
        user = self._users.get(domain)
        if user is None:
            user = self.testbed.add_user(domain, f"load-{domain}")
            self._users[domain] = user
        return user

    def _next_request(self, now: float) -> ReservationRequest:
        source, destination = self.rng.choice(self.spec.pairs)
        rate = self.rng.choice(self.spec.rate_choices_mbps)
        duration = self.rng.expovariate(1.0 / self.spec.mean_duration_s)
        duration = max(duration, 1.0)
        return self.testbed.make_request(
            source=source,
            destination=destination,
            bandwidth_mbps=rate,
            start=now,
            duration=duration,
        )

    def _arrival(self) -> None:
        now = self.testbed.sim.now
        if now >= self.spec.horizon_s:
            return
        request = self._next_request(now)
        user = self._user_for(request.source_domain)
        outcome = self.testbed.hop_by_hop.reserve(user, request)
        self.result.offered += 1
        volume = request.rate_mbps * request.duration
        self.result.offered_mbps_s += volume
        if outcome.granted:
            self.result.accepted += 1
            self.result.accepted_mbps_s += volume
            self.testbed.schedule_activation(outcome)
        else:
            self.result.rejected += 1
            domain = outcome.denial_domain or "?"
            self.result.rejected_by_domain[domain] = (
                self.result.rejected_by_domain.get(domain, 0) + 1
            )
        gap = self.rng.expovariate(self.spec.arrival_rate_per_s)
        if now + gap < self.spec.horizon_s:
            self.testbed.sim.schedule(gap, self._arrival)

    def run(self) -> WorkloadResult:
        """Generate arrivals until the horizon; returns the aggregate."""
        first = self.rng.expovariate(self.spec.arrival_rate_per_s)
        self.testbed.sim.schedule(first, self._arrival)
        self.testbed.sim.run()
        return self.result
