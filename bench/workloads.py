"""The five benchmark workloads.

A workload turns a seed into *inputs* (every user, rate, window and op
kind, generated before any clock starts), builds a testbed, and then
executes one input step at a time through the public API —
``Testbed.reserve`` and ``HopByHopProtocol.cancel/modify/refresh/
process_ingress`` — checking each outcome against what the inputs say it
must be.  Everything is in-process, closed loop, one client: a step
starts when the previous one has returned.

One *episode* is: build, warm up, run ``steps`` timed steps, drain and
check the invariants.  An episode's inputs depend on the seed only, so
every episode of a run does identical work and the per-reservation counts
repeat exactly however many episodes fit into the measuring time.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.bb.reservations import ReservationState
from repro.core.hopbyhop import SignallingOutcome
from repro.core.testbed import Testbed, build_linear_testbed
from repro.workloads.attackers import ByzantineBrokerAttacker

__all__ = ["WORKLOADS", "Inputs", "Recorder", "Workload", "World", "make_workload"]

_LIVE_STATES = (
    ReservationState.PENDING, ReservationState.GRANTED, ReservationState.ACTIVE,
)


def _rng(stream: str, seed: int) -> random.Random:
    # crc32, not hash(): str hashing is salted per process.
    return random.Random(zlib.crc32(f"{stream}:{seed}".encode()))


@dataclass
class Inputs:
    """Everything a seed decides, generated before timing starts."""

    testbed_seed: int
    #: Reservations booked during set-up, one ``Workload.fill`` call each
    #: (``standing_book`` only).
    fill: list[tuple]
    #: Warm-up steps followed by the timed steps.
    ops: list[tuple]


class Recorder:
    """What the steps of one phase did and whether it was expected."""

    def __init__(self) -> None:
        #: wall seconds per op kind
        self.samples: dict[str, list[float]] = {}
        #: honest reservations granted *and* released
        self.reservations = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wire_bytes = 0
        self.modelled_latency_s = 0.0
        self.granted = 0

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; *ok* is whether its outcome was
        the expected one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def time(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)


@dataclass
class World:
    """One episode's testbed and the state the steps carry."""

    testbed: Testbed
    users: list[Any]
    #: ``standing_book``: (user index, outcome) oldest first.
    live: deque = field(default_factory=deque)
    attacker: ByzantineBrokerAttacker | None = None


class Workload:
    """Base: a linear chain, honest reserve→cancel cycles."""

    name = ""
    why = ""
    #: Observers attached (metrics, events, spans, ledger, recorder).
    watched = False
    domains: tuple[str, ...] = ()
    scheme = "simulated"
    n_users = 4
    rates: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0)
    warmup = 0
    steps = 0
    #: Workloads that must get byte-identical inputs share a stream.
    stream = ""

    def __init__(self, scale: float = 1.0) -> None:
        self.warmup = max(2, round(self.warmup * scale))
        self.steps = max(10, round(self.steps * scale))
        self.expected_messages = 2 * len(self.domains)

    # -- inputs --------------------------------------------------------------------

    def generate(self, seed: int) -> Inputs:
        rng = _rng(self.stream or self.name, seed)
        testbed_seed = rng.getrandbits(32)
        ops = [
            (i % self.n_users, rng.choice(self.rates))
            for i in range(self.warmup + self.steps)
        ]
        return Inputs(testbed_seed, [], ops)

    # -- set-up ----------------------------------------------------------------------

    def build(self, inputs: Inputs) -> World:
        testbed = build_linear_testbed(
            list(self.domains), scheme=self.scheme, seed=inputs.testbed_seed,
        )
        users = [
            testbed.add_user(self.domains[0], f"user{i}")
            for i in range(self.n_users)
        ]
        # Every RAR carries a capability chain: CAS cert + delegation.
        cas = testbed.add_cas("grid")
        for user in users:
            cas.grant(user.dn, ["reserve"])
            user.grid_login(cas)
        return World(testbed, users)

    # -- steps -----------------------------------------------------------------------

    def _granted_ok(self, outcome: SignallingOutcome) -> bool:
        return (
            outcome.granted
            and tuple(outcome.path) == self.domains
            and all(d in outcome.handles for d in self.domains)
            and outcome.messages == self.expected_messages
        )

    def _reserve(
        self, world: World, rec: Recorder, user_index: int, rate: float,
        **window: float,
    ) -> SignallingOutcome | None:
        """One timed honest ``Testbed.reserve``; ``None`` when the outcome
        was not the expected grant."""
        started = time.perf_counter()
        try:
            outcome = world.testbed.reserve(
                world.users[user_index],
                source=self.domains[0], destination=self.domains[-1],
                bandwidth_mbps=rate, **window,
            )
        except Exception as exc:  # an exception escaping the API is a failure
            rec.op(False, f"reserve raised {exc!r}")
            return None
        rec.time("reserve", time.perf_counter() - started)
        if not rec.op(
            self._granted_ok(outcome),
            f"reserve: granted={outcome.granted} by={outcome.denial_domain} "
            f"reason={outcome.denial_reason!r} messages={outcome.messages} "
            f"handles={sorted(outcome.handles)}",
        ):
            if outcome.granted:
                world.testbed.hop_by_hop.cancel(outcome)
            return None
        rec.granted += 1
        rec.wire_bytes += outcome.bytes
        rec.modelled_latency_s += outcome.latency_s
        return outcome

    def _cancel(self, world: World, rec: Recorder, outcome: SignallingOutcome) -> None:
        started = time.perf_counter()
        try:
            world.testbed.hop_by_hop.cancel(outcome)
        except Exception as exc:
            rec.op(False, f"cancel raised {exc!r}")
            return
        rec.time("cancel", time.perf_counter() - started)
        rec.op(True, "cancel")
        rec.reservations += 1

    def step(self, world: World, op: tuple, rec: Recorder) -> None:
        user_index, rate = op
        outcome = self._reserve(world, rec, user_index, rate)
        if outcome is not None:
            self._cancel(world, rec, outcome)

    # -- output check ----------------------------------------------------------------

    def live_bookings(self, world: World) -> int:
        return sum(
            len(broker.admission.schedule(name).bookings)
            for broker in world.testbed.brokers.values()
            for name in broker.admission.resources()
        )

    def expected_standing(self, world: World) -> int:
        """Bookings the timed phase must leave behind (before draining)."""
        return 0

    def check_state(self, world: World, rec: Recorder) -> None:
        """No overbooking, and exactly the standing population booked."""
        for domain, broker in world.testbed.brokers.items():
            for name in broker.admission.resources():
                schedule = broker.admission.schedule(name)
                # Swept here, not asked of the schedule: the checker must
                # not share the code it checks.  Bookings are [start, end),
                # so at equal times a release sorts before a booking.
                edges = sorted(
                    edge for b in schedule.bookings
                    for edge in ((b.start, b.rate_mbps), (b.end, -b.rate_mbps))
                )
                load = peak = 0.0
                for _, delta in edges:
                    load += delta
                    peak = max(peak, load)
                rec.op(
                    peak <= schedule.capacity_mbps + 1e-9,
                    f"{domain}/{name} overbooked: {peak} > {schedule.capacity_mbps}",
                )
        rec.op(
            self.live_bookings(world) == self.expected_standing(world),
            f"live bookings {self.live_bookings(world)} != "
            f"{self.expected_standing(world)}",
        )

    def drain(self, world: World, rec: Recorder) -> None:
        """Release everything still held, then: no capacity leak, no
        reservation stuck in a non-terminal state."""
        self.check_state(world, rec)
        while world.live:
            _, outcome = world.live.popleft()
            world.testbed.hop_by_hop.cancel(outcome)
        leaked = self.live_bookings(world)
        rec.op(leaked == 0, f"{leaked} bookings leaked after release")
        stuck = sum(
            len(broker.reservations.in_state(*_LIVE_STATES))
            for broker in world.testbed.brokers.values()
        )
        rec.op(stuck == 0, f"{stuck} reservations left in a live state")

    def table_rows(self, world: World) -> int:
        return sum(len(b.reservations) for b in world.testbed.brokers.values())


class Chain8Sim(Workload):
    name = "chain8_sim"
    why = (
        "8-domain chain, simulated keys, capability chain in every RAR: cheapest "
        "signatures and deepest nesting, so codec/envelope/trust-walk work dominates"
    )
    domains = tuple("ABCDEFGH")
    warmup = 30
    steps = 200


class Chain8SimWatched(Chain8Sim):
    name = "chain8_sim_watched"
    why = (
        "the same inputs as chain8_sim with metrics, events, spans, ledger and flight "
        "recorder attached: its ratio to chain8_sim is the observability budget"
    )
    stream = "chain8_sim"
    watched = True


class Chain3Rsa(Workload):
    name = "chain3_rsa"
    why = (
        "the paper's A-B-C chain with real RSA-512: modular pow dominates, so a crypto "
        "change moves this row and leaves chain8_sim flat, a codec change the reverse"
    )
    domains = tuple("ABC")
    scheme = "rsa"
    # Key generation makes an episode dear, so episodes are short: the
    # run needs many repeats of each op more than it needs many ops.
    warmup = 3
    steps = 30


class StandingBook(Workload):
    name = "standing_book"
    why = (
        "4-domain chain against a full table of 400 advance reservations, with modify "
        "and refresh beside reserve/cancel: admission and reservation-table work dominates"
    )
    domains = tuple("ABCD")
    n_users = 8
    rates = (0.5, 1.0, 2.0)
    duration_s = (600.0, 7200.0)
    horizon_s = 24 * 3600.0
    standing = 400
    warmup = 10
    steps = 200
    modify_step_mbps = 0.25

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)
        self.standing = max(20, round(self.standing * scale))

    def _bookings(self, rng: random.Random, n: int) -> list[tuple]:
        """*n* (user, rate, start, duration) whose starts and durations
        each cover their range evenly whatever the seed.  What a reserve
        costs here is set by how many standing windows it overlaps, so
        the seed decides the order and the pairing, never how full the
        table is: runs with different seeds stay comparable."""
        low, high = self.duration_s
        starts = [(i + rng.random()) / n * self.horizon_s for i in range(n)]
        durations = [low + (i + rng.random()) / n * (high - low) for i in range(n)]
        rates = [self.rates[i % len(self.rates)] for i in range(n)]
        for column in (starts, durations, rates):
            rng.shuffle(column)
        return [
            (i % self.n_users, rates[i], starts[i], durations[i]) for i in range(n)
        ]

    def generate(self, seed: int) -> Inputs:
        rng = _rng(self.name, seed)
        testbed_seed = rng.getrandbits(32)
        fill = self._bookings(rng, self.standing)
        ops = []
        for i, booking in enumerate(self._bookings(rng, self.warmup + self.steps)):
            # Every 10th step also modifies a random live reservation,
            # every 10th (offset 5) refreshes one; picks are fractions of
            # the live population.
            modify = rng.random() if i % 10 == 0 else None
            refresh = rng.random() if i % 10 == 5 else None
            ops.append(booking + (modify, refresh))
        return Inputs(testbed_seed, fill, ops)

    def build(self, inputs: Inputs) -> World:
        testbed = build_linear_testbed(
            list(self.domains), seed=inputs.testbed_seed,
            # Ample capacity: the table is full, the links are not.
            inter_capacity_mbps=100_000.0, intra_capacity_mbps=100_000.0,
            soft_state_ttl_s=2 * self.horizon_s,
        )
        users = [
            testbed.add_user(self.domains[0], f"user{i}")
            for i in range(self.n_users)
        ]
        return World(testbed, users)

    def fill(self, world: World, op: tuple, rec: Recorder) -> None:
        """Book one of the standing reservations (set-up, not timed work)."""
        user_index, rate, start, duration = op
        outcome = self._reserve(
            world, rec, user_index, rate, start=start, duration=duration,
        )
        if outcome is not None:
            world.live.append((user_index, outcome))

    def step(self, world: World, op: tuple, rec: Recorder) -> None:
        user_index, rate, start, duration, modify, refresh = op
        outcome = self._reserve(
            world, rec, user_index, rate, start=start, duration=duration,
        )
        if outcome is not None:
            world.live.append((user_index, outcome))
            # Population stays at K: the oldest leaves as the new arrives.
            self._cancel(world, rec, world.live.popleft()[1])
        if modify is not None:
            self._modify(world, rec, int(modify * len(world.live)))
        if refresh is not None:
            self._refresh(world, rec, int(refresh * len(world.live)))

    def _modify(self, world: World, rec: Recorder, index: int) -> None:
        user_index, old = world.live[index]
        new_rate = old.verified.request.rate_mbps + self.modify_step_mbps
        started = time.perf_counter()
        try:
            fresh = world.testbed.hop_by_hop.modify(
                world.users[user_index], old, rate_mbps=new_rate,
            )
        except Exception as exc:
            rec.op(False, f"modify raised {exc!r}")
            return
        rec.time("modify", time.perf_counter() - started)
        if rec.op(
            self._granted_ok(fresh)
            and fresh.verified.request.rate_mbps == new_rate,
            f"modify: granted={fresh.granted} reason={fresh.denial_reason!r}",
        ):
            world.live[index] = (user_index, fresh)

    def _refresh(self, world: World, rec: Recorder, index: int) -> None:
        started = time.perf_counter()
        try:
            world.testbed.hop_by_hop.refresh(world.live[index][1])
        except Exception as exc:
            rec.op(False, f"refresh raised {exc!r}")
            return
        rec.time("refresh", time.perf_counter() - started)
        rec.op(True, "refresh")

    def expected_standing(self, world: World) -> int:
        # Each reservation books, in every domain, the intra trunk, the
        # ingress from its upstream and the egress to its downstream.
        return self.standing * (3 * len(self.domains) - 2)


class Edge3Attacked(Workload):
    name = "edge3_attacked"
    why = (
        "A-B-C with policy files and armed defenses while a byzantine peer sprays B: "
        "honest goodput under the ingress gate, the policy layer and the denial/unwind leg"
    )
    domains = tuple("ABC")
    n_users = 16
    rates = (1.0, 2.0, 5.0)
    warmup = 20
    steps = 500
    #: Modelled seconds per step: token buckets refill and replay windows
    #: age as they do in ``run_survivability``.
    tick_s = 0.5
    denied_rate_mbps = 50.0
    hostile_per_step = 20
    policies = {
        "A": "Return GRANT",
        "B": "If BW <= 10Mb/s\n    Return GRANT\nReturn DENY",
        "C": "Return GRANT",
    }
    victim = "B"

    def build(self, inputs: Inputs) -> World:
        testbed = build_linear_testbed(dict(self.policies), seed=inputs.testbed_seed)
        testbed.arm_defenses()
        users = [
            testbed.add_user(self.domains[0], f"user{i}")
            for i in range(self.n_users)
        ]
        attacker = ByzantineBrokerAttacker(
            testbed, victim=self.victim, source=self.domains[0],
            rng=random.Random(inputs.testbed_seed),
        )
        attacker.prepare(testbed.sim.now)
        return World(testbed, users, attacker=attacker)

    def step(self, world: World, op: tuple, rec: Recorder) -> None:
        user_index, rate = op
        testbed = world.testbed
        testbed.sim.run(until=testbed.sim.now + self.tick_s)
        now = testbed.sim.now
        outcome = self._reserve(
            world, rec, user_index, rate, start=now, duration=60.0,
        )
        if outcome is not None:
            self._cancel(world, rec, outcome)
        self._denied(world, rec, user_index, now)
        attacker = world.attacker
        for _ in range(self.hostile_per_step):
            admitted = attacker.stats.admitted
            started = time.perf_counter()
            try:
                attacker.fire(now)
            except Exception as exc:
                rec.op(False, f"process_ingress raised {exc!r}")
                continue
            rec.time("ingress", time.perf_counter() - started)
            rec.op(attacker.stats.admitted == admitted, "hostile frame accepted")

    def _denied(self, world: World, rec: Recorder, user_index: int, now: float) -> None:
        """A request B's policy must deny; A unwinds its own grant."""
        started = time.perf_counter()
        try:
            outcome = world.testbed.reserve(
                world.users[user_index],
                source=self.domains[0], destination=self.domains[-1],
                bandwidth_mbps=self.denied_rate_mbps, start=now, duration=60.0,
            )
        except Exception as exc:
            rec.op(False, f"denied reserve raised {exc!r}")
            return
        rec.time("denied", time.perf_counter() - started)
        if not rec.op(
            not outcome.granted
            and outcome.denial_domain == self.victim
            and bool(outcome.denial_reason),
            f"expected denial by {self.victim}: granted={outcome.granted} "
            f"by={outcome.denial_domain} reason={outcome.denial_reason!r}",
        ) and outcome.granted:
            world.testbed.hop_by_hop.cancel(outcome)


WORKLOADS: tuple[type[Workload], ...] = (
    Chain8Sim, Chain8SimWatched, Chain3Rsa, StandingBook, Edge3Attacked,
)


def make_workload(name: str, scale: float = 1.0) -> Workload:
    for cls in WORKLOADS:
        if cls.name == name:
            return cls(scale)
    raise KeyError(name)
