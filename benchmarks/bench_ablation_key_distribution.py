"""Ablation / §6.4: the four key-distribution alternatives.

The paper lists four ways a verifier can obtain the public keys needed to
check the nested signatures, and argues for the first:

1. **certificates in the request** (web of trust / key introducers) — the
   paper's choice, implemented by the protocol;
2. **an LDAP-style certificate repository** — smaller messages, but one
   trusted-lookup round trip per unknown signer and a strong trust
   requirement on the repository;
3. **out-of-band distribution** — smallest messages, but every verifier
   must have pre-fetched every potential signer's certificate (quadratic
   pre-distribution in the number of principals);
4. **restricted delegation / impersonation** — the capability-certificate
   machinery already measured in E7.

This ablation quantifies the trade: request bytes on the wire versus
per-request repository lookups versus pre-distributed certificates, as a
function of path length.
"""

import random

import pytest

from repro.bb.reservations import ReservationRequest
from repro.core.messages import F_INTRODUCED_CERT, make_bb_rar, make_user_rar, unwrap_rar_layers
from repro.crypto.dn import DN
from repro.crypto.x509 import CertificateAuthority

PATH_LENGTHS = [2, 4, 8]


def request():
    return ReservationRequest(
        source_host="h", destination_host="h'",
        source_domain="D0", destination_domain="DN",
        rate_mbps=10.0, start=0.0, end=3600.0,
    )


def build_world(hops):
    rng = random.Random(23)
    ca = CertificateAuthority(DN.make("Grid", "Root", "CA"), rng=rng,
                              scheme="simulated")
    user_dn = DN.make("Grid", "D0", "Alice")
    user_kp, user_cert = ca.issue_keypair(user_dn, rng=rng)
    bbs = []
    for i in range(hops):
        dn = DN.make("Grid", f"D{i}", f"BB-D{i}")
        kp, cert = ca.issue_keypair(dn, rng=rng)
        bbs.append((dn, kp, cert))
    return user_dn, user_kp, user_cert, bbs


def option1_in_request(world):
    """The paper's choice: certificates travel inside the request."""
    user_dn, user_kp, user_cert, bbs = world
    rar = make_user_rar(request=request(), source_bb=bbs[0][0],
                        user=user_dn, user_key=user_kp.private)
    prev_cert = user_cert
    for i in range(len(bbs) - 1):
        dn, kp, cert = bbs[i]
        rar = make_bb_rar(inner=rar, introduced_cert=prev_cert,
                          downstream=bbs[i + 1][0], bb=dn, bb_key=kp.private)
        prev_cert = cert
    return rar.wire_size(), 0, 0  # bytes, lookups, pre-distributed


def option2_repository(world):
    """DN references only; the verifier resolves keys from a trusted
    repository, exercising the real :func:`verify_rar_with_repository`
    code path (the RAR simply omits introduced certificates)."""
    from repro.core.messages import make_user_rar as _mk_user
    from repro.core.trust import verify_rar_with_repository
    from repro.crypto.repository import CertificateRepository
    from repro.crypto.truststore import TrustPolicy, TrustStore

    user_dn, user_kp, user_cert, bbs = world
    # Build the same chain but without certificates: each BB layer
    # names the downstream hop only.
    env = _mk_user(
        request=request(), source_bb=bbs[0][0], user=user_dn,
        user_key=user_kp.private,
    )
    for i in range(len(bbs) - 1):
        dn, kp, _ = bbs[i]
        env = make_bb_rar(inner=env, introduced_cert=None,
                          downstream=bbs[i + 1][0], bb=dn, bb_key=kp.private)
    repo = CertificateRepository()
    repo.publish(user_cert)
    for _, _, cert in bbs:
        repo.publish(cert)
    verifier_dn = bbs[-1][0]
    peer_cert = bbs[-2][2]
    store = TrustStore(TrustPolicy(require_ca_issued_peers=False))
    store.add_introduced_peer(peer_cert)
    verified, lookups = verify_rar_with_repository(
        env, verifier=verifier_dn, peer_certificate=peer_cert,
        truststore=store, repository=repo,
    )
    assert verified.user == user_dn
    return env.wire_size(), lookups, 0


def _bare_wire_size(world):
    """Wire size of the certificate-free nesting (options 2 and 3)."""
    user_dn, user_kp, _, bbs = world
    from repro.core.messages import make_user_rar as _mk_user

    env = _mk_user(
        request=request(), source_bb=bbs[0][0], user=user_dn,
        user_key=user_kp.private,
    )
    for i in range(len(bbs) - 1):
        dn, kp, _ = bbs[i]
        env = make_bb_rar(inner=env, introduced_cert=None,
                          downstream=bbs[i + 1][0], bb=dn, bb_key=kp.private)
    return env.wire_size()


def option3_out_of_band(world):
    """No certificates, no lookups at request time — but every verifier
    pre-fetched every principal's certificate."""
    wire = _bare_wire_size(world)
    user_dn, user_kp, user_cert, bbs = world
    principals = 1 + len(bbs)
    verifiers = len(bbs)
    return wire, 0, verifiers * (principals - 1)


@pytest.mark.parametrize("hops", PATH_LENGTHS)
def test_ablation_key_distribution(benchmark, report, hops):
    world = build_world(hops)

    def run():
        return (
            option1_in_request(world),
            option2_repository(world),
            option3_out_of_band(world),
        )

    (b1, l1, p1), (b2, l2, p2), (b3, l3, p3) = benchmark(run)
    report.append(f"Key distribution, {hops}-hop path "
                  f"(bytes / online lookups / pre-distributed certs):")
    report.append(f"  1. certs in request (paper) : {b1:>6d} / {l1} / {p1}")
    report.append(f"  2. LDAP repository          : {b2:>6d} / {l2} / {p2}")
    report.append(f"  3. out of band              : {b3:>6d} / {l3} / {p3}")
    # The trade-off shape the paper argues from:
    assert b1 > b2  # in-request carries more bytes...
    assert l1 == 0 and p1 == 0  # ...but needs no extra infrastructure.
    assert l2 == hops - 1  # repository: a lookup per unknown signer.
    assert p3 > 0 and l3 == 0  # out-of-band: quadratic pre-distribution.
    if hops >= 4:
        assert p3 >= hops * (hops - 1)
