"""Property suite: a verification burst == sequential verification.

Hypothesis draws arbitrary burst compositions — valid users, a second
valid user, a revoked signer, an expired certificate, a forged
signature, duplicates of any of them — and asserts that the shape
production runs for a burst, a :func:`repro.core.trust.verify_rar` loop
inside one :func:`repro.crypto.cache.use_batch_caches` scope, produces
for every item exactly the verdict (or exactly the error, by type *and*
message) that a sequential cold-cache ``verify_rar`` produces.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import make_user_rar
from repro.core.testbed import build_linear_testbed
from repro.core.trust import verify_rar
from repro.crypto import cache as verification_cache
from repro.crypto.dn import DN
from repro.errors import ReproError

AT_TIME = 100.0

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

MEMBER_NAMES = ("alice", "carol", "revoked", "expired", "forged")


class World:
    """One domain's BB plus five member kinds, two RAR variants each."""

    def __init__(self):
        self.testbed = build_linear_testbed(["A", "B"])
        self.bb = self.testbed.brokers["A"]
        ca = self.testbed.domain_cas["A"]
        self.bb.truststore.add_revocation_checker(ca.is_revoked)

        alice = self.testbed.add_user("A", "Alice")
        carol = self.testbed.add_user("A", "Carol")
        bob = self.testbed.add_user("A", "Bob")
        ca.revoke(bob.certificate.serial)
        eve_keys, eve_cert = ca.issue_keypair(
            DN.make("Grid", "A", "Eve"),
            rng=self.testbed.rng,
            not_after=AT_TIME - 1.0,
        )

        def rars(dn, key, rates=(10.0, 20.0)):
            return tuple(
                make_user_rar(
                    request=self.testbed.make_request(
                        source="A", destination="B", bandwidth_mbps=rate,
                    ),
                    source_bb=self.bb.dn,
                    user=dn,
                    user_key=key,
                )
                for rate in rates
            )

        # name -> (rar variants, certificate presented by the peer)
        self.members = {
            "alice": (rars(alice.dn, alice.keypair.private),
                      alice.certificate),
            "carol": (rars(carol.dn, carol.keypair.private),
                      carol.certificate),
            "revoked": (rars(bob.dn, bob.keypair.private),
                        bob.certificate),
            "expired": (rars(eve_cert.subject, eve_keys.private),
                        eve_cert),
            # Claims to be Alice but is signed with Carol's key.
            "forged": (rars(alice.dn, carol.keypair.private),
                       alice.certificate),
        }

    def item(self, name, variant):
        """(rar, certificate the peer presents) for one burst item."""
        variants, certificate = self.members[name]
        return variants[variant], certificate


@pytest.fixture(scope="module")
def world():
    return World()


def verdict(bb, item):
    """One verify_rar call at *bb*, as (ok, type name, message, summary)."""
    rar, certificate = item
    try:
        verified = verify_rar(
            rar,
            verifier=bb.dn,
            peer_certificate=certificate,
            truststore=bb.truststore,
            at_time=AT_TIME,
        )
    except ReproError as exc:
        return (False, type(exc).__name__, str(exc), None)
    return (True, "", "", verified_summary(verified))


def burst_verdicts(bb, items):
    """The burst as production runs it: one shared cache scope around
    the per-item calls, each item's error its own."""
    with verification_cache.use_batch_caches() as caches:
        return [verdict(bb, item) for item in items], caches


def verified_summary(verified):
    return (
        str(verified.user),
        verified.request,
        tuple(str(dn) for dn in verified.path),
        verified.depth,
        len(verified.assertions),
        len(verified.introduced),
    )


@st.composite
def batches(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    return [
        (draw(st.sampled_from(MEMBER_NAMES)),
         draw(st.integers(min_value=0, max_value=1)))
        for _ in range(size)
    ]


@SETTINGS
@given(spec=batches())
def test_batch_matches_sequential(world, spec):
    items = [world.item(name, variant) for name, variant in spec]

    expected = [verdict(world.bb, item) for item in items]
    results, caches = burst_verdicts(world.bb, items)

    assert results == expected

    # Shared work: an item identical to an earlier *verified* one is
    # answered from the burst's verdict cache; nothing else is.
    verified_once = {
        (name, variant) for name, variant in spec
        if name in ("alice", "carol")
    }
    valid_items = sum(name in ("alice", "carol") for name, _ in spec)
    assert caches.stats("rar").hits == valid_items - len(verified_once)

    # The revoked / expired / forged members never verify; the valid
    # members never fail (the strategy guarantees nothing else).
    for (name, _), result in zip(spec, results):
        assert result[0] == (name in ("alice", "carol"))


def test_explicit_shared_caches_do_not_change_verdicts(world):
    items = [world.item(name, 0) for name in MEMBER_NAMES]
    baseline = [verdict(world.bb, item) for item in items]
    # An enabled process cache set is what a burst joins instead of
    # installing its own; the second pass answers from it.
    with verification_cache.use_caches() as shared:
        for _ in range(2):
            again, joined = burst_verdicts(world.bb, items)
            assert joined is shared
            assert again == baseline
    assert shared.stats("rar").hits == 2  # alice and carol, second pass


def test_mid_batch_revocation_is_not_papered_over(world):
    """A verdict cached earlier in the burst must be re-guarded: once
    the signer is revoked, the same bytes stop verifying from that item
    on, inside the same warm scope."""
    testbed = build_linear_testbed(["A", "B"])
    bb = testbed.brokers["A"]
    ca = testbed.domain_cas["A"]
    bb.truststore.add_revocation_checker(ca.is_revoked)
    user = testbed.add_user("A", "Uma")
    rar = make_user_rar(
        request=testbed.make_request(
            source="A", destination="B", bandwidth_mbps=5.0,
        ),
        source_bb=bb.dn,
        user=user.dn,
        user_key=user.keypair.private,
    )
    item = (rar, user.certificate)

    with verification_cache.use_batch_caches() as caches:
        before = [verdict(bb, item), verdict(bb, item)]
        assert [v[0] for v in before] == [True, True]
        assert caches.stats("rar").hits == 1

        ca.revoke(user.certificate.serial)
        after = [verdict(bb, item), verdict(bb, item)]

    assert [v[0] for v in after] == [False, False]
    # The post-revocation error must equal a cold sequential call.
    assert after == [verdict(bb, item)] * 2
