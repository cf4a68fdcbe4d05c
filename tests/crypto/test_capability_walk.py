"""Differential suite: the fused capability walk against the two passes
it replaced.

``verify_capability_chains`` sorts a flat certificate list into chains
and checks each one in a single walk that verifies every link's
signature once.  The oracle (``tests/crypto/_oracle.py``) is the old
path: ``split_capability_chains`` (which verified each link to attach
it), then ``verify_delegation_chain`` on every chain (which verified
every signature again).  Hypothesis picks a subset of a pool of
certificates, in any order, plus revoked elements and a clock; the walk
must find the same chains, accept the same ones with equal
``DelegationResult``s, and reject the others with the same reason.

The pool holds two communities delegated along A → B → C, one holder
delegating the same capability twice to the same next hop, a forged
link signature, a widened capability set, a dropped restriction, an
element that expires, and a root from an untrusted community.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.crypto.capability import (
    EXT_CAPABILITIES,
    EXT_CAPABILITY_FLAG,
    EXT_RESTRICTIONS,
    ProxyCredential,
    delegate,
    issue_capability,
    verify_capability_chains,
)
from repro.crypto.dn import DN
from repro.crypto.keys import SimulatedScheme
from repro.crypto.x509 import sign_certificate

from tests.crypto import _oracle

SCHEME = SimulatedScheme()
CAS_1 = DN.make("Grid", "ESnet", "CAS")
CAS_2 = DN.make("Grid", "GEANT", "CAS")
CAS_X = DN.make("Grid", "Rogue", "CAS")
USER = DN.make("Grid", "DomainA", "Alice")
BB_A = DN.make("Grid", "DomainA", "BB-A")
BB_B = DN.make("Grid", "DomainB", "BB-B")
BB_C = DN.make("Grid", "DomainC", "BB-C")
CLOCKS = (0.0, 50.0, 500.0)


def _forge(parent, subject, public_key, signing_key, *, caps=None,
           restrictions=None, serial=90):
    """A delegation written by hand, so it can break a rule."""
    return sign_certificate(
        serial=serial, issuer=parent.subject, subject=subject,
        public_key=public_key, signing_key=signing_key,
        not_before=parent.not_before, not_after=parent.not_after,
        extensions={
            EXT_CAPABILITY_FLAG: True,
            EXT_CAPABILITIES: caps if caps is not None
            else parent.extension(EXT_CAPABILITIES),
            EXT_RESTRICTIONS: restrictions if restrictions is not None
            else parent.extension(EXT_RESTRICTIONS),
        },
    )


def _pool():
    rng = random.Random(39)
    keys = {name: SCHEME.generate(rng) for name in
            ("cas1", "cas2", "casx", "A", "B", "C", "impostor")}

    def issue(cas, key, caps, serial, **kwargs):
        return issue_capability(
            issuer=cas, issuer_signing_key=keys[key].private, subject=USER,
            capabilities=caps, serial=serial, rng=rng, scheme="simulated",
            **kwargs,
        )

    def hop(cert, holder_key, subject, next_key, **kwargs):
        return delegate(
            ProxyCredential(cert, holder_key), delegate_subject=subject,
            delegate_public_key=keys[next_key].public, **kwargs,
        )

    cred1 = issue(CAS_1, "cas1", ["ESnet:member", "ESnet:admin"], 1)
    cred2 = issue(CAS_2, "cas2", ["GEANT:member"], 2)
    short = issue(CAS_1, "cas1", ["ESnet:member"], 3, not_after=100.0)
    rogue = issue(CAS_X, "casx", ["ESnet:member"], 4)
    a1 = hop(cred1.certificate, cred1.private_key, BB_A, "A",
             extra_restrictions=["valid-for:RAR-1"])
    a2 = hop(cred2.certificate, cred2.private_key, BB_A, "A")
    a_short = hop(short.certificate, short.private_key, BB_A, "A")
    a_rogue = hop(rogue.certificate, rogue.private_key, BB_A, "A")
    b1 = hop(a1, keys["A"].private, BB_B, "B")
    b1_twice = hop(a1, keys["A"].private, BB_B, "B", serial=77)
    b2 = hop(a2, keys["A"].private, BB_B, "B")
    c1 = hop(b1, keys["B"].private, BB_C, "C",
             drop_capabilities=["ESnet:admin"])
    c2 = hop(b2, keys["B"].private, BB_C, "C")
    forged = _forge(a1, BB_B, keys["B"].public, keys["impostor"].private)
    widened = _forge(a2, BB_B, keys["B"].public, keys["A"].private,
                     caps=("GEANT:admin", "GEANT:member"))
    unrestricted = _forge(b1, BB_C, keys["C"].public, keys["B"].private,
                          restrictions=())
    pool = [
        cred1.certificate, cred2.certificate, short.certificate,
        rogue.certificate, a1, a2, a_short, a_rogue, b1, b1_twice, b2, c1,
        c2, forged, widened, unrestricted,
    ]
    trusted = {CAS_1: keys["cas1"].public, CAS_2: keys["cas2"].public}
    return pool, trusted


POOL, TRUSTED = _pool()


def _budget(request, tier1: int, full: int) -> settings:
    return settings(
        max_examples=full if request.config.getoption("--full-sweeps") else tier1,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _compare(certs, at_time, revoked):
    def checker(cert):
        return cert.fingerprint in revoked

    expected = _oracle.checked_chains(
        certs, trusted_issuers=TRUSTED, at_time=at_time,
        revocation_checker=checker,
    )
    walked = verify_capability_chains(
        certs, trusted_issuers=TRUSTED, at_time=at_time,
        revocation_checker=checker,
    )
    assert [(c.chain, c.result, c.reason) for c in walked] == expected
    return walked


def test_matches_the_oracle(request):
    fingerprints = [cert.fingerprint for cert in POOL]

    @_budget(request, tier1=60, full=2000)
    @given(
        st.lists(st.sampled_from(range(len(POOL))), unique=True),
        st.sampled_from(CLOCKS),
        st.sets(st.sampled_from(fingerprints), max_size=3),
    )
    # Each broken element right behind the tip it claims to extend.
    @example([0, 4, 13], 0.0, set())            # forged link signature
    @example([1, 5, 14], 0.0, set())            # widened capabilities
    @example([0, 4, 8, 15], 0.0, set())         # dropped restriction
    @example([0, 4, 8, 9], 0.0, set())          # A delegates to B twice
    @example([2, 6], 500.0, set())              # expired element
    @example([0, 4, 8], 0.0, {fingerprints[4]})  # revoked element
    def check(picks, at_time, revoked):
        _compare([POOL[i] for i in picks], at_time, revoked)

    check()


@pytest.mark.parametrize("order", ["as delegated", "reversed", "shuffled"])
def test_the_whole_pool_in_any_order(order):
    """Every case at once: two communities survive whole, each broken
    element starts a rejected chain of its own."""
    certs = list(POOL)
    if order == "reversed":
        certs.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(certs)
    walked = _compare(certs, 0.0, set())
    if order == "as delegated":
        accepted = sorted(
            sorted(c.result.capabilities) for c in walked
            if c.result is not None and c.result.holders[-1] == BB_C
        )
        assert accepted == [["ESnet:member"], ["GEANT:member"]]
        assert any(c.result is None and "not trusted" in c.reason
                   for c in walked)


def test_each_link_signature_is_verified_once(monkeypatch):
    """On one community's chain of four, the walk verifies four
    signatures (the root and three links); the oracle verified seven."""
    chain = [POOL[0], POOL[4], POOL[8], POOL[11]]
    calls = []
    real = SimulatedScheme.verify
    monkeypatch.setattr(
        SimulatedScheme, "verify",
        lambda self, *args: calls.append(1) or real(self, *args),
    )
    verify_capability_chains(chain, trusted_issuers=TRUSTED)
    walked = len(calls)
    calls.clear()
    _oracle.checked_chains(chain, trusted_issuers=TRUSTED)
    assert (walked, len(calls)) == (4, 7)
