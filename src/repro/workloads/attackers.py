"""Attack workloads: adversary personas for the survivability harness.

The paper's Figure 4 demonstrates *one* misreservation; a broker fleet
that provisions policy information end to end must also survive
*sustained, adaptive* abuse.  Each persona here models one adversary
from the threat model (docs/ROBUSTNESS.md):

* :class:`FloodAttacker` — reservation flooding: a single well-formed
  user saturates the victim domain's interdomain capacity with large,
  long-lived reservations it never intends to use;
* :class:`ByzantineBrokerAttacker` — a compromised hop spraying
  malformed (truncated payload, corrupted field tag, junk object) and
  *replayed* signed envelopes at the victim's ingress;
* :class:`TunnelSquatter` — claims flow slices of a tunnel it never
  reserved, hammering the end-domain claim path with unauthorized
  allocation attempts.

Personas are deterministic under an injected seeded RNG (REP102: no
global randomness) and composable with the honest generator at any
attack fraction — :mod:`repro.workloads.survivability` interleaves one
persona's ``fire`` calls with honest Poisson arrivals on the shared
simulation clock.  ``fire`` returns the *work units* the victim broker
actually spent on the attack signal (multiples of one full envelope
verification, see :data:`repro.core.hopbyhop.WORK_VERIFY`); the harness
integrates these into the victim's modelled work queue, which is how
attack processing delays honest traffic.

Personas detect defense-gate rejections by watching the armed
:class:`~repro.bb.defense.DomainDefense` counters move, never by
parsing denial strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.codec import to_wire
from repro.core.hopbyhop import WORK_GATE, WORK_VERIFY
from repro.core.messages import make_user_rar
from repro.core.testbed import Testbed
from repro.errors import SimulationError, TunnelError

__all__ = [
    "AttackerStats",
    "AttackPersona",
    "FloodAttacker",
    "ByzantineBrokerAttacker",
    "TunnelSquatter",
    "PERSONAS",
    "make_persona",
]


@dataclass
class AttackerStats:
    """What one persona did and what happened to it."""

    fired: int = 0
    #: Rejected by the pre-verification defense gate (cheap for the victim).
    gate_rejected: int = 0
    #: Attack signals that were granted capacity / accepted as valid.
    admitted: int = 0
    #: Denied after full processing (policy, quota, capacity, trust).
    denied: int = 0
    #: Replayed envelope copies sent (byzantine persona).
    replays_sent: int = 0
    #: Replays rejected without any signature verification running.
    replays_rejected_before_verification: int = 0
    #: Unauthorized tunnel-slice claims attempted / succeeded (squatter).
    squats_attempted: int = 0
    squats_succeeded: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "fired": self.fired,
            "gate_rejected": self.gate_rejected,
            "admitted": self.admitted,
            "denied": self.denied,
            "replays_sent": self.replays_sent,
            "replays_rejected_before_verification":
                self.replays_rejected_before_verification,
            "squats_attempted": self.squats_attempted,
            "squats_succeeded": self.squats_succeeded,
        }


class AttackPersona:
    """Base persona: one adversary aimed at one victim domain.

    ``prepare`` runs once before the mixed load starts (stand up users,
    credentials, captured envelopes); ``fire`` launches one attack
    signal at modelled time *now* and returns the work units the victim
    spent on it.
    """

    name = ""
    #: The attack fraction the survivability harness uses by default —
    #: each persona needs a different intensity to express its harm
    #: (capacity theft needs few signals, queue drain needs many).
    default_attack_fraction = 0.6

    def __init__(
        self, testbed: Testbed, *, victim: str, source: str,
        rng: random.Random,
    ) -> None:
        if victim not in testbed.brokers:
            raise SimulationError(f"unknown victim domain {victim!r}")
        self.testbed = testbed
        self.victim = victim
        self.source = source
        self.rng = rng
        self.stats = AttackerStats()

    # -- defense-gate observation --------------------------------------------------

    def _gate_total(self) -> int:
        return sum(
            b.defense.stats.total
            for b in self.testbed.brokers.values()
            if b.defense is not None
        )

    def prepare(self, now: float = 0.0) -> None:  # pragma: no cover - trivial
        pass

    def fire(self, now: float) -> float:
        raise NotImplementedError


#: The flooder's first ask and the window it holds each grab for.
_FLOOD_RATE_MBPS = 32.0
_FLOOD_DURATION_S = 600.0
#: The legitimate tunnel the squatter's victim domain terminates.
_SQUAT_TUNNEL_MBPS = 20.0


class FloodAttacker(AttackPersona):
    """Reservation flooding: grab the victim's capacity and sit on it.

    One attacker identity issues large, long-lived, perfectly well-formed
    reservations toward the victim domain and never claims or releases
    them.  The attacker is *adaptive*: it starts with big grabs and,
    each time capacity denies it, halves its ask — filling the crumbs
    until the interdomain link has nothing left for anyone.  Undefended,
    every honest request afterwards dies on ``CAPACITY_EXCEEDED``.  The
    per-user reservation quota is the counter-knob: the flooder plateaus
    at ``per_user_quota`` live grants (a bounded slice of the link) and
    the rest is denied cheaply at admission.
    """

    name = "flood"
    default_attack_fraction = 0.6

    def __init__(
        self, testbed: Testbed, *, victim: str, source: str,
        rng: random.Random,
    ) -> None:
        super().__init__(testbed, victim=victim, source=source, rng=rng)
        self._ask_mbps = _FLOOD_RATE_MBPS
        self._user = None

    def prepare(self, now: float = 0.0) -> None:
        self._user = self.testbed.add_user(self.source, "flood-attacker")

    def fire(self, now: float) -> float:
        assert self._user is not None
        self.stats.fired += 1
        before = self._gate_total()
        outcome = self.testbed.reserve(
            self._user,
            source=self.source,
            destination=self.victim,
            bandwidth_mbps=self._ask_mbps,
            start=now,
            duration=_FLOOD_DURATION_S,
        )
        if self._gate_total() > before:
            self.stats.gate_rejected += 1
            return WORK_GATE
        if outcome.granted:
            self.stats.admitted += 1
        else:
            self.stats.denied += 1
            # Adapt: whatever was left is smaller than the ask, so halve
            # it and come back for the crumbs.
            self._ask_mbps = max(1.0, self._ask_mbps / 2.0)
        # The victim ran a full verification either way (quota and
        # capacity denials happen after the signature walk).
        return WORK_VERIFY


class ByzantineBrokerAttacker(AttackPersona):
    """A compromised hop spraying malformed and replayed envelopes.

    Five payload modes rotate deterministically: a truncated wire image,
    a corrupted leading field tag, random junk bytes, a non-envelope
    object, and a byte-identical *replay* of a previously sent signed
    envelope.  Undefended, every junk delivery costs the victim a decode
    attempt and every replay a full signature walk; with the gate armed,
    the token bucket clamps the spray and the replay guard rejects every
    repeated digest before verification spends anything.
    """

    name = "byzantine-broker"
    default_attack_fraction = 0.98
    _MODES = ("replay", "truncated", "replay", "badtag",
              "replay", "garbage", "junk-object")

    def __init__(
        self, testbed: Testbed, *, victim: str, source: str,
        rng: random.Random,
    ) -> None:
        super().__init__(testbed, victim=victim, source=source, rng=rng)
        self.peer = "CN=BB-evil,O=Grid"
        self._wire: bytes = b""
        self._replay_seeded = False
        self._cycle = 0

    def prepare(self, now: float = 0.0) -> None:
        # Capture one well-formed signed envelope to replay and mutate:
        # a compromised hop has plenty of legitimate traffic to record.
        user = self.testbed.add_user(self.source, "byz-capture")
        victim_bb = self.testbed.brokers[self.victim]
        request = self.testbed.make_request(
            source=self.source, destination=self.victim,
            bandwidth_mbps=5.0, start=now, duration=60.0,
        )
        envelope = make_user_rar(
            request=request,
            source_bb=victim_bb.dn,
            user=user.dn,
            user_key=user.keypair.private,
        )
        self._wire = to_wire(envelope)

    def fire(self, now: float) -> float:
        self.stats.fired += 1
        mode = self._MODES[self._cycle % len(self._MODES)]
        self._cycle += 1
        if mode == "replay":
            payload: object = self._wire
        elif mode == "truncated":
            cut = self.rng.randrange(8, max(9, len(self._wire) // 3))
            payload = self._wire[:cut]
        elif mode == "badtag":
            payload = bytes([self._wire[0] ^ 0xFF]) + self._wire[1:]
        elif mode == "garbage":
            payload = bytes(
                self.rng.getrandbits(8) for _ in range(64)
            )
        else:  # junk-object
            payload = {"not": "an envelope", "n": self._cycle}
        peer_cert = self.testbed.brokers[self.source].certificate
        protocol = self.testbed.hop_by_hop
        is_replay = mode == "replay" and self._replay_seeded
        if mode == "replay":
            self._replay_seeded = True
        before = self._gate_total()
        report = protocol.process_ingress(
            self.victim, payload, peer=self.peer, peer_kind="user",
            peer_certificate=peer_cert, at_time=now,
        )
        if is_replay:
            self.stats.replays_sent += 1
            if not report.accepted and not report.verified:
                self.stats.replays_rejected_before_verification += 1
        if not report.accepted and self._gate_total() > before:
            self.stats.gate_rejected += 1
        elif report.accepted:
            self.stats.admitted += 1
        else:
            self.stats.denied += 1
        return report.work_units


class TunnelSquatter(AttackPersona):
    """Claims flow slices of a tunnel it never reserved.

    ``prepare`` lets a legitimate owner establish an aggregate tunnel
    from the source to the victim domain; the squatter then hammers the
    victim's end-domain claim path with signed-but-unauthorized slice
    claims.  Ownership checking (:meth:`Tunnel.may_allocate`) already
    guarantees no squat ever *succeeds*; the survivable part is the
    processing cost — with defenses on, the per-peer bucket clamps the
    claim spray before verification (claims are shed-exempt but not
    rate-limit-exempt).
    """

    name = "tunnel-squatter"
    default_attack_fraction = 0.94

    def __init__(
        self, testbed: Testbed, *, victim: str, source: str,
        rng: random.Random,
    ) -> None:
        super().__init__(testbed, victim=victim, source=source, rng=rng)
        self.tunnel = None
        self._user = None
        self._claim_wire: bytes = b""

    def prepare(self, now: float = 0.0) -> None:
        owner = self.testbed.add_user(self.source, "tunnel-owner")
        request = self.testbed.make_request(
            source=self.source, destination=self.victim,
            bandwidth_mbps=_SQUAT_TUNNEL_MBPS,
            start=now, duration=7200.0,
        )
        tunnel, outcome = self.testbed.tunnels.establish(owner, request)
        if tunnel is None:
            raise SimulationError(
                f"squatter setup: tunnel denied: {outcome.denial_reason}"
            )
        self.tunnel = tunnel
        self._user = self.testbed.add_user(self.source, "squatter")
        claim_request = self.testbed.make_request(
            source=self.source, destination=self.victim,
            bandwidth_mbps=1.0, start=now, duration=30.0,
        )
        self._claim_wire = to_wire(make_user_rar(
            request=claim_request,
            source_bb=self.testbed.brokers[self.victim].dn,
            user=self._user.dn,
            user_key=self._user.keypair.private,
        ))

    def fire(self, now: float) -> float:
        assert self.tunnel is not None and self._user is not None
        self.stats.fired += 1
        before = self._gate_total()
        report = self.testbed.hop_by_hop.process_ingress(
            self.victim, self._claim_wire, peer=str(self._user.dn),
            peer_kind="user",
            peer_certificate=self._user.certificate,
            at_time=now, operation="claim",
        )
        if not report.accepted and self._gate_total() > before:
            self.stats.gate_rejected += 1
            return report.work_units
        # The claim got past the cheap gate: the end domain spends the
        # verification, then the ownership check throws the squat out.
        self.stats.squats_attempted += 1
        try:
            end = min(now + 30.0, self.tunnel.end)
            self.testbed.tunnels.allocate_flow(
                self.tunnel.tunnel_id, self._user, 1.0,
                start=now, end=end,
            )
        except TunnelError:
            self.stats.denied += 1
        else:  # pragma: no cover - must never happen
            self.stats.squats_succeeded += 1
            self.stats.admitted += 1
        return report.work_units


#: Persona registry for the harness and the CLI.
PERSONAS: dict[str, type[AttackPersona]] = {
    cls.name: cls
    for cls in (
        FloodAttacker,
        ByzantineBrokerAttacker,
        TunnelSquatter,
    )
}


def make_persona(
    name: str, testbed: Testbed, *, victim: str, source: str,
    rng: random.Random,
) -> AttackPersona:
    """Instantiate a persona by registry name."""
    try:
        cls = PERSONAS[name]
    except KeyError:
        raise SimulationError(
            f"unknown attack persona {name!r} "
            f"(expected one of {', '.join(sorted(PERSONAS))})"
        ) from None
    return cls(testbed, victim=victim, source=source, rng=rng)
