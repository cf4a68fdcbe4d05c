"""Memo hygiene: a memoised encoding always equals a fresh one.

Names, keys, certificates, envelopes and assertions memoise their
canonical bytes on the object.  A memo is derived from the object's own
fields, so a copy made by ``dataclasses.replace`` (or by any
``with_tampered_*`` helper) must compute its own: for every field, the
copy's memoised bytes equal the reference encoder's bytes of the copy's
fields, expanded through ``to_cbe`` without touching any memo.  The memo
that signing carries to the signed copy (:func:`seal`,
:func:`sign_certificate`) must equal the same fresh encoding, and be
read without encoding again — and so must the whole-object memo
(``cbe_bytes``) that signing now sets too, built from the same encoded
fields.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.core.envelope import LINK_DIGEST_FIELD, LINKED_FIELD, SignedEnvelope, seal
from repro.crypto import canonical
from repro.crypto.dn import DN
from repro.crypto.keys import PublicKey, SimulatedScheme
from repro.crypto.x509 import sign_certificate
from repro.errors import EncodingError
from repro.policy.attributes import make_assertion

from tests.crypto._oracle import reference_encode

SCHEME = SimulatedScheme()
ISSUER = DN.parse("/O=Grid/OU=A/CN=CA")
SUBJECT = DN.parse("/O=Grid/OU=A/CN=Alice")
OTHER = DN.parse("/O=Grid/OU=B/CN=Bob")


def _expand(value):
    """*value* as plain data, protocol objects expanded by ``to_cbe``."""
    if hasattr(value, "to_cbe"):
        return _expand(value.to_cbe())
    if isinstance(value, (tuple, list)):
        return [_expand(v) for v in value]
    if isinstance(value, dict):
        return {k: _expand(v) for k, v in value.items()}
    return value


def _fresh(value) -> bytes:
    return reference_encode(_expand(value))


@pytest.fixture(scope="module")
def keys():
    rng = random.Random(31)
    return SCHEME.generate(rng), SCHEME.generate(rng)


def _certificate(keys):
    return sign_certificate(
        serial=7, issuer=ISSUER, subject=SUBJECT, public_key=keys[0].public,
        signing_key=keys[1].private, not_before=1.0, not_after=99.0,
        extensions={"caps": ("reserve", "cancel"), "ca": False, "dn": OTHER},
    )


def _envelope(keys):
    inner = seal({"x": 1, "who": OTHER}, signer=OTHER, key=keys[1].private)
    return seal(
        {
            "rate": 10.0,
            LINKED_FIELD: inner,
            LINK_DIGEST_FIELD: hashlib.sha256(inner.cbe_bytes()).digest(),
            "chain": (_certificate(keys),),
            "user": SUBJECT,
        },
        signer=ISSUER, key=keys[0].private,
    )


def _assertion(keys):
    return make_assertion(
        issuer=ISSUER, issuer_key=keys[1].private, subject=SUBJECT,
        attributes={"group": "ATLAS", "level": 3}, valid_until=50.0,
    )


def _check_memos(obj) -> None:
    """Every memoised encoding of *obj* equals the fresh one."""
    assert obj.cbe_bytes() == _fresh(obj)
    if hasattr(obj, "tbs_bytes"):
        assert obj.tbs_bytes() == _fresh(obj.tbs())
        assert obj.fingerprint == hashlib.sha256(_fresh(obj)).hexdigest()[:16]
    if hasattr(obj, "body_bytes"):
        assert obj.body_bytes() == _fresh(obj.body_cbe())


def _prime(obj) -> None:
    obj.cbe_bytes()
    if hasattr(obj, "tbs_bytes"):
        obj.tbs_bytes()
        obj.fingerprint
    if hasattr(obj, "body_bytes"):
        obj.body_bytes()


#: A replacement value for every constructor field of every memoising type.
_ALTERNATIVES = {
    "DistinguishedName": lambda keys: {"rdns": OTHER.rdns},
    "PublicKey": lambda keys: {
        "scheme": "other", "material": keys[1].public.material,
    },
    "Certificate": lambda keys: {
        "serial": 8, "issuer": OTHER, "subject": OTHER,
        "public_key": keys[1].public, "not_before": 2.0, "not_after": 98.0,
        "extensions": (("caps", ("reserve",)),), "signature": b"forged",
        "signature_scheme": "rsa",
    },
    "SignedEnvelope": lambda keys: {
        "payload": (("rate", 11.0), ("user", OTHER)), "signer": OTHER,
        "signature": b"forged", "scheme": "rsa",
    },
    "SignedAssertion": lambda keys: {
        "issuer": OTHER, "subject": OTHER, "attributes": (("group", "CMS"),),
        "signature": b"forged", "signature_scheme": "rsa",
        "valid_from": 2.0, "valid_until": float("inf"),
    },
}

_MAKERS = {
    "DistinguishedName": lambda keys: DN.parse("/O=Grid/OU=A/CN=Carol"),
    "PublicKey": lambda keys: keys[0].public,
    "Certificate": _certificate,
    "SignedEnvelope": _envelope,
    "SignedAssertion": _assertion,
}


@pytest.mark.parametrize("kind", sorted(_MAKERS))
def test_replace_of_any_field_recomputes_memos(keys, kind):
    original = _MAKERS[kind](keys)
    _prime(original)
    alternatives = _ALTERNATIVES[kind](keys)
    fields = {f.name for f in dataclasses.fields(original) if f.init}
    assert set(alternatives) == fields, "every field needs a replacement"
    for name, value in alternatives.items():
        copy = dataclasses.replace(original, **{name: value})
        _check_memos(copy)
    _check_memos(original)


def test_tampered_certificate_recomputes_memos(keys):
    cert = _certificate(keys)
    _prime(cert)
    forged = cert.with_tampered_subject(OTHER)
    _check_memos(forged)
    assert forged.tbs_bytes() != cert.tbs_bytes()


@pytest.mark.parametrize("field", ["rate", "user", "new", LINKED_FIELD])
def test_tampered_envelope_recomputes_memos(keys, field):
    envelope = _envelope(keys)
    _prime(envelope)
    forged = envelope.with_tampered_field(field, OTHER)
    _check_memos(forged)
    assert forged.cbe_bytes() != envelope.cbe_bytes()


def test_tampered_assertion_recomputes_memos(keys):
    assertion = _assertion(keys)
    _prime(assertion)
    forged = assertion.with_tampered_attribute("group", "CMS")
    _check_memos(forged)
    assert forged.cbe_bytes() != assertion.cbe_bytes()


def _encodes_during(fn) -> tuple[object, int]:
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        real = canonical.encode
        patch.setattr(canonical, "encode", lambda v: calls.append(1) or real(v))
        result = fn()
    return result, len(calls)


def test_sign_certificate_carries_the_tbs_memo(keys):
    cert = _certificate(keys)
    tbs, encodes = _encodes_during(cert.tbs_bytes)
    assert encodes == 0
    assert tbs == _fresh(cert.tbs())
    assert SCHEME.verify(keys[1].public, _fresh(cert.tbs()), cert.signature)


def test_seal_carries_the_body_memo(keys):
    envelope = _envelope(keys)
    body, encodes = _encodes_during(envelope.body_bytes)
    assert encodes == 0
    assert body == _fresh(envelope.body_cbe())
    assert envelope.verify(keys[0].public)


def test_public_key_memo_is_per_object(keys):
    """Two equal keys are two objects, each with its own memo."""
    twin = PublicKey(keys[0].public.scheme, keys[0].public.material)
    assert twin == keys[0].public
    assert twin.cbe_bytes() == keys[0].public.cbe_bytes() == _fresh(twin)


def test_sign_certificate_sets_the_whole_memo(keys):
    cert = _certificate(keys)
    whole, encodes = _encodes_during(cert.cbe_bytes)
    assert encodes == 0
    assert whole == _fresh(cert)
    assert cert.fingerprint == hashlib.sha256(_fresh(cert)).hexdigest()[:16]


@pytest.mark.parametrize("linked", [True, False], ids=["linked", "nested"])
def test_seal_sets_the_whole_memo(keys, linked):
    """A linked layer signs the digest instead of the inner envelope, a
    nested one signs the inner envelope: either way the whole envelope
    carries it, and both memos equal fresh encodings."""
    envelope = _envelope(keys)
    if not linked:
        envelope = seal(
            {k: v for k, v in envelope.payload if k != LINK_DIGEST_FIELD},
            signer=ISSUER, key=keys[0].private,
        )
    whole, encodes = _encodes_during(envelope.cbe_bytes)
    assert encodes == 0
    assert whole == _fresh(envelope)
    assert envelope.body_bytes() == _fresh(envelope.body_cbe())
    assert (LINKED_FIELD in envelope.body_cbe()["payload"]) is not linked
    assert envelope.verify(keys[0].public)


def test_a_digest_field_of_none_signs_the_inner_envelope(keys):
    """Only a digest that is there unlinks the inner envelope."""
    inner = seal({"x": 1}, signer=OTHER, key=keys[1].private)
    envelope = seal({LINKED_FIELD: inner, LINK_DIGEST_FIELD: None},
                    signer=ISSUER, key=keys[0].private)
    assert envelope.body_bytes() == _fresh(envelope.body_cbe())
    assert LINKED_FIELD in envelope.body_cbe()["payload"]
    assert envelope.cbe_bytes() == _fresh(envelope)


def _nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("depth", range(195, 201))
def test_seal_refuses_the_depth_the_encoder_refuses(keys, depth):
    """Payload values are encoded two mappings deep, as in the body: a
    payload too deep for the reference encoder is an EncodingError."""
    payload = {"deep": _nested(depth)}
    unsigned = SignedEnvelope(tuple(payload.items()), ISSUER, b"", "simulated")
    try:
        reference_encode(_expand(unsigned.to_cbe()))
    except EncodingError:
        with pytest.raises(EncodingError):
            seal(payload, signer=ISSUER, key=keys[0].private)
        return
    envelope = seal(payload, signer=ISSUER, key=keys[0].private)
    assert envelope.cbe_bytes() == _fresh(envelope)
