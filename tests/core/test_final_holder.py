"""§6.5 check 5 at the destination: the final holder of a capability is
the destination BB, and the chain must end at its own key.

The destination signs no possession proof to itself.  It keeps a chain
its policy server verified only when the chain's last certificate
carries the key this BB proved it holds in the channel handshake — the
key the upstream hop delegated to.
"""

import random

import repro.core.hopbyhop as hopbyhop
from repro.core.messages import F_INNER
from repro.core.testbed import build_linear_testbed
from repro.crypto.keys import SimulatedScheme


def _granted_user(names):
    testbed = build_linear_testbed(names, scheme="simulated", seed=5)
    user = testbed.add_user(names[0], "u0")
    cas = testbed.add_cas("grid")
    cas.grant(user.dn, ["reserve"])
    user.grid_login(cas)
    return testbed, user


def test_chain_ending_at_the_destinations_key_is_kept():
    testbed, user = _granted_user(["A", "B", "C"])
    outcome = testbed.reserve(user, source="A", destination="C",
                              bandwidth_mbps=1.0)
    assert outcome.granted
    assert outcome.delegation is not None
    assert outcome.delegation.holders[-1] == testbed.brokers["C"].dn
    assert outcome.delegation.capabilities == {"grid:reserve"}


def test_chain_ending_at_another_key_is_dropped(monkeypatch):
    """B re-delegates to C's name but an impostor's key: every link
    still verifies, so C's policy server accepts the chain, but it does
    not end at C's key and the destination drops it."""
    testbed, user = _granted_user(["A", "B", "C"])
    destination = testbed.brokers["C"]
    impostor = SimulatedScheme().generate(random.Random(7))
    real = hopbyhop.delegate

    def redelegate(holder, *, delegate_subject, delegate_public_key, **kw):
        if delegate_subject == destination.dn:
            delegate_public_key = impostor.public
        return real(holder, delegate_subject=delegate_subject,
                    delegate_public_key=delegate_public_key, **kw)

    monkeypatch.setattr(hopbyhop, "delegate", redelegate)
    outcome = testbed.reserve(user, source="A", destination="C",
                              bandwidth_mbps=1.0)
    assert outcome.granted
    final = outcome.verified.capability_chain[-1]
    assert final.subject == destination.dn
    assert final.public_key == impostor.public
    assert outcome.delegations == ()
    assert outcome.delegation is None


def test_destination_signs_only_its_approval(monkeypatch):
    """At d = 3 the destination BB makes one private-key operation per
    reservation: the signature on its approval."""
    testbed, user = _granted_user(["A", "B", "C"])
    warm = testbed.reserve(user, source="A", destination="C",
                           bandwidth_mbps=1.0)
    testbed.hop_by_hop.cancel(warm)
    destination = testbed.brokers["C"].keypair.private
    signed = []
    real = SimulatedScheme.sign

    def sign(self, private_key, message):
        signature = real(self, private_key, message)
        if private_key == destination:
            signed.append(message)
        return signature

    monkeypatch.setattr(SimulatedScheme, "sign", sign)
    outcome = testbed.reserve(user, source="A", destination="C",
                              bandwidth_mbps=1.0)
    assert outcome.granted
    # The approval the user holds wraps the destination's innermost.
    approval = outcome.approval
    while approval.get(F_INNER) is not None:
        approval = approval[F_INNER]
    assert approval.signer == testbed.brokers["C"].dn
    assert signed == [approval.body_bytes()]


def test_a_chain_the_hop_rejected_is_not_extended(monkeypatch):
    """B's policy server rejects the user's chain (its revocation oracle
    calls every certificate revoked): B signs no delegation of it, so C
    holds no chain although C itself has no revocation oracle."""
    testbed, user = _granted_user(["A", "B", "C"])
    testbed.brokers["B"].policy_server.revocation_checker = lambda cert: True
    delegated_to = []
    real = hopbyhop.delegate

    def recording(holder, *, delegate_subject, **kw):
        delegated_to.append(delegate_subject)
        return real(holder, delegate_subject=delegate_subject, **kw)

    monkeypatch.setattr(hopbyhop, "delegate", recording)
    outcome = testbed.reserve(user, source="A", destination="C",
                              bandwidth_mbps=1.0)
    assert outcome.granted
    assert delegated_to == [testbed.brokers["B"].dn]
    assert outcome.delegations == ()
    assert outcome.delegation is None
