"""C4 / §6.4: cost of the nested-signature envelope scheme.

The protocol signs at every hop and verifies the whole chain at every
hop.  This benchmark measures (a) envelope construction + full
transitive-trust verification as a function of path length, (b) the RSA
vs simulated-scheme cost gap, and (c) message growth: each hop adds its
layer, so wire size grows linearly in the path length — the price of
carrying certificates in-band (see the key-distribution ablation for the
alternatives).
"""

import random

import pytest

from repro.bb.reservations import ReservationRequest
from repro.core.messages import make_bb_rar, make_user_rar
from repro.core.trust import verify_rar
from repro.crypto import canonical
from repro.crypto.dn import DN
from repro.crypto.keys import RSAScheme, SimulatedScheme
from repro.crypto.truststore import TrustPolicy, TrustStore
from repro.crypto.x509 import CertificateAuthority
from repro.errors import MalformedMessageError
from tests.core._oracle import nested_bb_rar


def request():
    return ReservationRequest(
        source_host="h0.D0", destination_host="h0.DN",
        source_domain="D0", destination_domain="DN",
        rate_mbps=10.0, start=0.0, end=3600.0,
    )


def build_world(scheme_name, hops):
    rng = random.Random(11)
    ca = CertificateAuthority(
        DN.make("Grid", "Root", "CA"), rng=rng, scheme=scheme_name
    )
    user_dn = DN.make("Grid", "D0", "Alice")
    user_kp, user_cert = ca.issue_keypair(user_dn, rng=rng)
    bbs = []
    for i in range(hops):
        dn = DN.make("Grid", f"D{i}", f"BB-D{i}")
        kp, cert = ca.issue_keypair(dn, rng=rng)
        bbs.append((dn, kp, cert))
    return user_dn, user_kp, user_cert, bbs


def build_chain(user_dn, user_kp, user_cert, bbs, *, wrap=make_bb_rar):
    rar = make_user_rar(
        request=request(), source_bb=bbs[0][0], user=user_dn,
        user_key=user_kp.private,
    )
    prev_cert = user_cert
    for i in range(len(bbs) - 1):
        dn, kp, cert = bbs[i]
        rar = wrap(
            inner=rar, introduced_cert=prev_cert, downstream=bbs[i + 1][0],
            bb=dn, bb_key=kp.private,
        )
        prev_cert = cert
    return rar


def build_rar(user_dn, user_kp, user_cert, bbs):
    return build_chain(user_dn, user_kp, user_cert, bbs)


@pytest.mark.parametrize("scheme_name", ["simulated", "rsa"])
@pytest.mark.parametrize("hops", [2, 4, 8])
def test_c4_build_and_verify(benchmark, report, scheme_name, hops):
    user_dn, user_kp, user_cert, bbs = build_world(scheme_name, hops)
    verifier_dn, _, _ = bbs[-1]
    peer_dn, peer_kp, peer_cert = bbs[-2]
    store = TrustStore(TrustPolicy(max_introduction_depth=32,
                                   require_ca_issued_peers=False))
    store.add_introduced_peer(peer_cert)

    def build_and_verify():
        rar = build_rar(user_dn, user_kp, user_cert, bbs)
        return rar, verify_rar(
            rar, verifier=verifier_dn, peer_certificate=peer_cert,
            truststore=store,
        )

    rar, verified = benchmark(build_and_verify)
    assert verified.user == user_dn
    assert verified.depth == hops - 1
    report.append(
        f"C4 [{scheme_name:<9s} {hops} hops] wire size "
        f"{rar.wire_size():>6d} B, depth {verified.depth}"
    )


def test_c4_wire_size_linear(benchmark, report):
    """Wire size grows ~linearly in the path length (each hop adds one
    layer plus one introduced certificate)."""

    def measure():
        out = {}
        for hops in (2, 4, 8):
            world = build_world("simulated", hops)
            out[hops] = build_rar(*world).wire_size()
        return out

    sizes = benchmark(measure)
    report.append(f"C4 wire sizes: {sizes}")
    growth_a = sizes[4] - sizes[2]
    growth_b = sizes[8] - sizes[4]
    assert growth_b == pytest.approx(2 * growth_a, rel=0.25)


def test_c4_misspath_append_chain_signed_bytes(benchmark, report):
    """Append-only chains bound the per-hop signature input.

    A nested chain (the paper's §6.4 shape, built by the test oracle)
    signs the *whole* accumulated envelope at every hop, so the bytes
    under the final signature grow linearly with the path; an append
    chain signs a fixed-size digest link instead.  At 16 hops the final
    wrap's signed bytes must shrink by at least 10x, while the total wire
    stays within a few percent (each hop adds one 32-byte link).  The
    verifier accepts the append chain and refuses the nested one: a
    layer has one accepted spelling."""
    user_dn, user_kp, user_cert, bbs = build_world("simulated", 16)
    verifier_dn, _, _ = bbs[-1]
    _, _, peer_cert = bbs[-2]
    store = TrustStore(TrustPolicy(max_introduction_depth=32,
                                   require_ca_issued_peers=False))
    store.add_introduced_peer(peer_cert)

    def verify(rar):
        return verify_rar(
            rar, verifier=verifier_dn, peer_certificate=peer_cert,
            truststore=store,
        )

    def measure():
        return {
            mode: build_chain(user_dn, user_kp, user_cert, bbs, wrap=wrap)
            for mode, wrap in (("nested", nested_bb_rar),
                               ("append", make_bb_rar))
        }

    chains = benchmark.pedantic(measure, rounds=1, iterations=1)
    nested, appended = chains["nested"], chains["append"]
    verified = verify(appended)
    assert verified.user == user_dn
    assert verified.depth == len(bbs) - 1
    with pytest.raises(MalformedMessageError, match="without a chain link"):
        verify(nested)
    nested_signed = len(canonical.encode(nested.body_cbe()))
    append_signed = len(canonical.encode(appended.body_cbe()))
    nested_wire, append_wire = nested.wire_size(), appended.wire_size()
    ratio = nested_signed / append_signed
    report.append(
        f"C4 miss-path append chain, 16 hops: final-wrap signed bytes "
        f"nested {nested_signed} B vs append {append_signed} B "
        f"({ratio:.1f}x), wire {nested_wire} B vs {append_wire} B"
    )
    assert ratio >= 10.0, (
        f"append chain only shrinks the signed bytes {ratio:.1f}x "
        f"(need >= 10x at 16 hops)"
    )
    assert append_wire <= nested_wire * 1.10


def test_c4_rsa_sign_vs_simulated(benchmark, report):
    """The per-signature cost gap between real RSA-1024 and the simulated
    scheme (why large sweeps default to the simulated scheme)."""
    rng = random.Random(5)
    rsa = RSAScheme(bits=1024)
    kp = rsa.generate(rng)
    payload = b"x" * 1000

    def sign():
        return rsa.sign(kp.private, payload)

    sig = benchmark(sign)
    assert rsa.verify(kp.public, payload, sig)
