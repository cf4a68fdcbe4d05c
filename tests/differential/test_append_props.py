"""Property suite: append-only chains == rebuilt nested chains.

For random hop chains (length, rates, deadlines drawn by Hypothesis),
the append chain every broker emits (each BB signs the inner layer's
digest link) and the paper's nested shape built by the test oracle
(each BB re-signs the whole inner envelope, :mod:`tests.core._oracle`)
must be observably identical: same layers, same signers, same payload
fields, same verification verdict at every layer — and the same
*rejection* when any inner layer is tampered with.  The production
reader accepts only the first: a nested chain is refused as malformed.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bb.reservations import ReservationRequest
from repro.core.codec import WireView, from_wire, to_wire
from repro.core.messages import (
    F_INNER,
    F_INNER_DIGEST,
    make_bb_rar,
    make_user_rar,
    unwrap_rar_layers,
)
from repro.crypto.dn import DN
from repro.crypto.x509 import CertificateAuthority
from repro.errors import (
    MalformedMessageError,
    SignallingError,
    TamperedMessageError,
)
from tests.core._oracle import nested_bb_rar, nested_layers

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MAX_HOPS = 5


class Chainyard:
    """One CA, one user, MAX_HOPS BB identities — built once."""

    def __init__(self):
        ca = CertificateAuthority(
            DN.make("Grid", "X", "CA-X"),
            rng=random.Random(5),
            scheme="simulated",
        )
        self.user_keys, self.user_cert = ca.issue_keypair(
            DN.make("Grid", "X", "User")
        )
        self.bbs = [
            ca.issue_keypair(DN.make("Grid", f"D{i}", f"BB-{i}"))
            for i in range(MAX_HOPS + 1)
        ]
        self.keys_of = {
            str(self.user_cert.subject): self.user_keys.public,
            **{
                str(cert.subject): keys.public
                for keys, cert in self.bbs
            },
        }

    def build(self, *, hops, rate, deadline, wrap=make_bb_rar):
        request = ReservationRequest(
            source_host="h0.D0",
            destination_host=f"h0.D{hops}",
            source_domain="D0",
            destination_domain=f"D{hops}",
            rate_mbps=rate,
            start=0.0,
            end=3600.0,
        )
        rar = make_user_rar(
            request=request,
            source_bb=self.bbs[0][1].subject,
            user=self.user_cert.subject,
            user_key=self.user_keys.private,
            deadline=deadline,
        )
        previous_cert = self.user_cert
        for hop in range(hops):
            keys, cert = self.bbs[hop]
            rar = wrap(
                inner=rar,
                introduced_cert=previous_cert,
                downstream=self.bbs[hop + 1][1].subject,
                bb=cert.subject,
                bb_key=keys.private,
            )
            previous_cert = cert
        return rar


YARD = Chainyard()


#: Each shape's reader: the production one (checking append links) and
#: the oracle's, for the nested shape.
SHAPES = ((make_bb_rar, unwrap_rar_layers), (nested_bb_rar, nested_layers))


def chain_ok(rar, keys_of, layers_of=unwrap_rar_layers):
    """Full-chain verdict: unwrap with *layers_of* and verify every
    layer's signature against its signer's key."""
    try:
        layers = layers_of(rar)
    except (TamperedMessageError, SignallingError):
        return False
    return all(
        layer.verify(keys_of[str(layer.signer)]) for layer in layers
    )


def layer_facts(layers):
    return [
        (
            str(layer.signer),
            tuple(k for k in layer.keys() if k != F_INNER_DIGEST),
            layer.get("deadline"),
            str(layer.get("downstream_dn")),
        )
        for layer in layers
    ]


chain_specs = st.builds(
    dict,
    hops=st.integers(min_value=1, max_value=MAX_HOPS),
    rate=st.sampled_from((5.0, 25.0, 155.0)),
    deadline=st.sampled_from((None, 30.0, 90.0)),
)


@SETTINGS
@given(spec=chain_specs)
def test_append_equals_rebuild(spec):
    appended = YARD.build(**spec)
    nested = YARD.build(wrap=nested_bb_rar, **spec)

    assert layer_facts(unwrap_rar_layers(appended)) == layer_facts(
        nested_layers(nested)
    )
    assert chain_ok(appended, YARD.keys_of)
    assert chain_ok(nested, YARD.keys_of, nested_layers)
    # The production reader takes one spelling of a layer.
    with pytest.raises(MalformedMessageError, match="without a chain link"):
        unwrap_rar_layers(nested)

    # Both shapes survive both codecs byte-stably.
    for rar in (appended, nested):
        wire = to_wire(rar)
        assert to_wire(from_wire(wire)) == wire
        assert to_wire(WireView.parse(wire).materialize()) == wire


@SETTINGS
@given(
    spec=chain_specs.filter(lambda s: s["hops"] >= 2),
    tamper_layer=st.integers(min_value=1, max_value=MAX_HOPS),
)
def test_tampered_inner_layer_rejected_in_both_modes(spec, tamper_layer):
    """Swapping any inner layer for a differently-signed one breaks the
    append chain's digest link exactly as it breaks the nested chain's
    enclosing signature."""
    for wrap, layers_of in SHAPES:
        rar = YARD.build(wrap=wrap, **spec)
        layers = layers_of(rar)
        index = min(tamper_layer, len(layers) - 1)
        forged = layers[index].with_tampered_field("tampered", True)
        doctored = layers[index - 1].with_tampered_field(F_INNER, forged)
        for outer in reversed(layers[: index - 1]):
            doctored = outer.with_tampered_field(F_INNER, doctored)
        assert not chain_ok(doctored, YARD.keys_of, layers_of), (
            f"{wrap.__name__}: tampered layer {index} still verifies"
        )


def test_append_layer_signature_covers_the_link():
    """Stripping the digest link (or the inner envelope) from an
    append-mode layer is itself tamper-evident."""
    rar = YARD.build(hops=2, rate=25.0, deadline=None)
    assert rar.get(F_INNER_DIGEST) is not None

    stripped_inner = rar.with_tampered_field(F_INNER, None)
    try:
        ok = chain_ok(stripped_inner, YARD.keys_of)
    except TamperedMessageError:
        ok = False
    assert not ok

    # Replacing the digest with the digest of a forged inner layer
    # invalidates this layer's signature (the link is signed).
    forged_inner = rar.get(F_INNER).with_tampered_field("tampered", True)
    from repro.core.envelope import chain_link_digest

    relinked = rar.with_tampered_field(
        F_INNER_DIGEST, chain_link_digest(forged_inner)
    ).with_tampered_field(F_INNER, forged_inner)
    assert not chain_ok(relinked, YARD.keys_of)
