"""The protocol's cost as a formula in chain depth.

A reservation over a linear chain of ``d`` domains, with simulated keys
and a CAS capability chain in the RAR, costs an exact polynomial in ``d``
of signatures, verifications, canonical encodes, messages and wire
bytes.  This module builds ``build_linear_testbed`` for d = 2…10, counts
with wrappers around ``SimulatedScheme.sign``/``verify`` and
``canonical.encode`` plus the channels' message counters, and pins every
formula exactly.  A change that moves a count edits the formula here, so
the diff names what moved.

The counts are host-independent: they repeat exactly on every warm
reservation at a given depth, so one equality replaces a timing.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import pytest

from repro.core.testbed import build_linear_testbed
from repro.crypto import canonical
from repro.crypto.keys import SimulatedScheme

DEPTHS = tuple(range(2, 11))
TUNNEL_DEPTHS = (2, 3, 5, 8)
#: Warm repetitions per depth; every one must read the same counts.
REPEATS = 2


@dataclass(frozen=True)
class Cost:
    signs: int
    verifies: int
    encodes: int
    messages: int
    bytes_encoded: int = 0
    wire_bytes: int = 0


def _counted(fn: Callable[..., Any], counts: Counter, key: str) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[key] += 1
        result = fn(*args, **kwargs)
        if isinstance(result, bytes):
            counts[key + " bytes"] += len(result)
        return result
    return wrapper


@contextmanager
def _counting(testbed: Any) -> Iterator[Callable[[], Cost]]:
    """Count signs, verifies, encodes (and the bytes they return) and
    channel messages inside the block; the yielded function reads them
    (wire bytes stay 0)."""
    counts: Counter = Counter()
    before = testbed.channels.total_messages()
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in (
            (SimulatedScheme, "sign"),
            (SimulatedScheme, "verify"),
            (canonical, "encode"),
        ):
            patch.setattr(owner, name, _counted(getattr(owner, name), counts, name))
        yield lambda: Cost(
            counts["sign"], counts["verify"], counts["encode"],
            testbed.channels.total_messages() - before,
            counts["encode bytes"],
        )


def _chain(d: int) -> tuple[Any, Any, list[str]]:
    """A warm d-domain chain with one CAS-granted user."""
    names = [chr(ord("A") + i) for i in range(d)]
    testbed = build_linear_testbed(names, scheme="simulated", seed=5)
    user = testbed.add_user(names[0], "u0")
    cas = testbed.add_cas("grid")
    cas.grant(user.dn, ["reserve"])
    user.grid_login(cas)
    warm = testbed.reserve(user, source=names[0], destination=names[-1],
                           bandwidth_mbps=1.0)
    assert warm.granted
    testbed.hop_by_hop.cancel(warm)
    return testbed, user, names


def _measure(d: int) -> tuple[list[Cost], list[Cost]]:
    """(reserve costs, cancel costs) of REPEATS warm reserve+cancel pairs."""
    testbed, user, names = _chain(d)
    reserves, cancels = [], []
    for _ in range(REPEATS):
        with _counting(testbed) as read:
            outcome = testbed.reserve(user, source=names[0],
                                      destination=names[-1], bandwidth_mbps=1.0)
            cost = read()
        assert outcome.granted
        assert outcome.messages == cost.messages
        reserves.append(dataclasses.replace(cost, wire_bytes=outcome.bytes))
        with _counting(testbed) as read:
            testbed.hop_by_hop.cancel(outcome)
            cancels.append(read())
    return reserves, cancels


@pytest.fixture(scope="module")
def costs() -> dict[int, tuple[list[Cost], list[Cost]]]:
    return {d: _measure(d) for d in DEPTHS}


def _reserve(costs: dict, d: int) -> Cost:
    reserves = costs[d][0]
    assert all(c == reserves[0] for c in reserves), f"d={d}: counts vary {reserves}"
    return reserves[0]


class TestReserveFormula:
    def test_signs_are_3d(self, costs):
        """The user signs ``RAR_U`` and its delegation to the source BB;
        each transit BB signs its RAR layer, its delegation to the next
        BB and its approval layer; the destination signs its approval.
        It proves possession of its key to nobody: the chain ends at its
        handshake key, which the channel has already proved it holds."""
        assert {d: _reserve(costs, d).signs for d in DEPTHS} == {
            d: 3 * d for d in DEPTHS
        }

    def test_verifies_are_quadratic(self, costs):
        """Per hop i (1…d): the RAR layers and introductions beneath it
        ((d² + d + 2)/2 summed, unchanged), plus one verify per
        certificate of its capability chain — the CAS root and i links —
        because sorting the certificates into chains checks each link's
        signature once and the destination reads its policy server's
        results.  The sum is (d + 1)²."""
        assert {d: _reserve(costs, d).verifies for d in DEPTHS} == {
            d: (d + 1) ** 2 for d in DEPTHS
        }

    def test_encodes_are_linear(self, costs):
        """Per domain: two envelopes sealed, each body encoded once at
        signing and each whole envelope once, from the same encoded
        payload values; one delegation certificate signed, its tbs bytes
        and its whole bytes encoded once at signing from the same encoded
        fields (the next hop verifies from the first memo, envelopes
        splice the second)."""
        assert {d: _reserve(costs, d).encodes for d in DEPTHS} == {
            d: 6 * d for d in DEPTHS
        }

    def test_bytes_encoded_are_quadratic(self, costs):
        """What the encodes above return, summed: quadratic because each
        whole envelope splices the chain beneath it."""
        assert {d: _reserve(costs, d).bytes_encoded for d in DEPTHS} == {
            d: 974 * d * d + 3574 * d + 430 for d in DEPTHS
        }

    def test_messages_are_2d(self, costs):
        assert {d: _reserve(costs, d).messages for d in DEPTHS} == {
            d: 2 * d for d in DEPTHS
        }

    def test_wire_bytes_second_difference(self, costs):
        wire = [_reserve(costs, d).wire_bytes for d in DEPTHS]
        firsts = [b - a for a, b in zip(wire, wire[1:])]
        seconds = [b - a for a, b in zip(firsts, firsts[1:])]
        assert seconds == [1673] * len(seconds)


def _measure_agent(d: int, concurrent: bool) -> list[Cost]:
    """REPEATS warm Approach 1 reservations, each released after."""
    testbed, user, names = _chain(d)
    # The home domain knows the user through its CA; every other domain
    # needs the out-of-band introduction Approach 1 is built on.
    for domain in names[1:]:
        testbed.introduce_user_to(user, domain)
    agent = testbed.end_to_end_agent
    costs = []
    for _ in range(REPEATS):
        request = testbed.make_request(source=names[0], destination=names[-1],
                                       bandwidth_mbps=1.0)
        with _counting(testbed) as read:
            outcome = agent.reserve(user, request, concurrent=concurrent)
            cost = read()
        assert outcome.complete
        assert outcome.messages == cost.messages
        agent.release(outcome)
        costs.append(cost)
    return costs


@pytest.fixture(scope="module")
def agent_costs() -> dict[tuple[int, bool], list[Cost]]:
    return {(d, concurrent): _measure_agent(d, concurrent)
            for d in DEPTHS for concurrent in (False, True)}


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["sequential", "concurrent"])
def test_approach1_is_linear(agent_costs, concurrent):
    """Approach 1 (``EndToEndAgent.reserve``, the GARA library contacting
    every BB itself) beside the formulas above: per domain the user signs
    one RAR and one capability delegation, sends one request and gets one
    reply; the BB verifies the RAR's seal and the two links of the
    capability chain (the CAS grant and the user's delegation), and the
    home domain checks the user's certificate against its CA once.
    Nothing nests, so every count is linear in d, and concurrency changes
    only the modelled latency."""
    for d in DEPTHS:
        costs = agent_costs[d, concurrent]
        assert all(c == costs[0] for c in costs), f"d={d}: counts vary {costs}"
    assert {d: agent_costs[d, concurrent][0] for d in DEPTHS} == {
        d: Cost(signs=2 * d, verifies=3 * d + 1, encodes=4 * d,
                messages=2 * d, bytes_encoded=4534 * d)
        for d in DEPTHS
    }


def _measure_coordinator(d: int, concurrent: bool) -> list[Cost]:
    """REPEATS warm STARS reservations, each released after; the first
    reservation, which opens the coordinator's channels, is not counted."""
    testbed, user, names = _chain(d)
    rc = testbed.coordinator(names[0])
    rc.enroll_user(user)
    costs = []
    for repeat in range(REPEATS + 1):
        request = testbed.make_request(source=names[0], destination=names[-1],
                                       bandwidth_mbps=1.0)
        with _counting(testbed) as read:
            outcome = rc.reserve(user, request, concurrent=concurrent)
            cost = read()
        assert outcome.complete
        assert outcome.messages == cost.messages
        rc.release(outcome)
        if repeat:
            costs.append(cost)
    return costs


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["sequential", "concurrent"])
def test_stars_is_flat_but_for_messages(concurrent):
    """The STARS coordinator beside Approach 1: it signs one identity
    assertion per reservation and encodes it once; every BB admits on
    that asserted identity under its contract with the RC and verifies
    nothing.  The user's request and the RC's answer cross the user's
    channel to the RC, and every domain adds one request and one reply."""
    got = {}
    for d in DEPTHS:
        costs = _measure_coordinator(d, concurrent)
        assert all(c == costs[0] for c in costs), f"d={d}: counts vary {costs}"
        got[d] = costs[0]
    assert got == {
        d: Cost(signs=1, verifies=0, encodes=1, messages=2 * d + 2,
                bytes_encoded=274)
        for d in DEPTHS
    }


def test_cancel_costs_nothing_signed(costs):
    """A cancel releases locally at every domain: no signature, no
    verification, no encode, no message, at every depth."""
    for d in DEPTHS:
        assert costs[d][1] == [Cost(0, 0, 0, 0)] * REPEATS, f"d={d}"


@pytest.mark.parametrize("d", TUNNEL_DEPTHS)
def test_tunnel_flow_is_flat_in_depth(d):
    """Inside an established tunnel a flow touches only the two end
    domains: 0 signs, 0 verifies and 4 messages, whatever the depth."""
    testbed, user, names = _chain(d)
    request = testbed.make_request(source=names[0], destination=names[-1],
                                   bandwidth_mbps=50.0, duration=7200.0)
    tunnel, outcome = testbed.tunnels.establish(user, request)
    assert outcome.granted
    for _ in range(REPEATS):
        with _counting(testbed) as read:
            allocation, _, messages = testbed.tunnels.allocate_flow(
                tunnel.tunnel_id, user, 1.0,
            )
            cost = read()
        testbed.tunnels.release_flow(tunnel.tunnel_id, allocation.allocation_id)
        assert (cost.signs, cost.verifies, cost.messages, messages) == (0, 0, 4, 4)
