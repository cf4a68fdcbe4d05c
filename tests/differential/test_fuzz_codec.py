"""Fuzz-style negative tests: the zero-copy decoder never crashes.

Deterministic adversarial sweeps over real protocol wires and
hand-crafted hostile frames.  The contract under attack input:

* the decoder raises only :class:`~repro.errors.ReproError` — what the
  ingress path converts into a typed denial (never a segfault-analogue
  like an uncaught IndexError or a hang);
* pure wire-level corruption (truncation, depth bombs, over-long
  lengths, duplicate keys) raises :class:`WireCodecError` specifically;
* the eager reference decoder agrees on accept/reject for every single
  mutation, byte for byte, bit for bit — and on the accepted value when
  both accept.
"""

import random

import pytest

from repro.core.codec import (
    TruncatedWireError,
    WireCodecError,
    WireDepthError,
    WireView,
    from_wire,
    to_wire,
)
from repro.crypto import canonical
from repro.errors import ReproError

from tests.vectors.build_vectors import build_all

#: What HopByHopProtocol._decode_received catches (a production-decoder
#: error outside this would escape process_ingress as a crash).  It is
#: ReproError, not just WireCodecError, because decoding re-runs
#: protocol-object validators — this sweep originally caught a crafted
#: res_spec escaping ingress as a ReservationStateError.
INGRESS_CATCHABLE = ReproError

#: The reference decoder leaks builtin errors on crafted input; only its
#: accept/reject verdict (and accepted value) is compared.
REFERENCE_CATCHABLE = (
    ReproError, KeyError, ValueError, TypeError, AttributeError,
    OverflowError,
)


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(4, "big") + payload


def _classify(decode, wire, catchable):
    try:
        return ("ok", to_wire(decode(wire)))
    except catchable as exc:
        return ("err", exc)


def _zero_copy(wire):
    return WireView.parse(wire).materialize()


def _reference(wire):
    return _classify(from_wire, wire, REFERENCE_CATCHABLE)


def _production(wire):
    return _classify(_zero_copy, wire, INGRESS_CATCHABLE)


#: A packed reservation request in its plain wire form (what ``pack``
#: emits), for crafting type-confused variants.
_RES_SPEC = {
    "__kind__": "res_spec",
    "source_host": "a", "destination_host": "b",
    "source_domain": "A", "destination_domain": "B",
    "rate_mbps": 1.0, "start": 0.0, "end": 1.0,
    "service_class": 46, "burst_bits": 1, "cost_ceiling": None,
    "linked_reservations": [], "attributes": [],
}


@pytest.fixture(scope="module")
def vectors():
    return build_all()


class TestTruncation:
    def test_every_prefix_rejected_by_both(self, vectors):
        wire = vectors["rar_user"]
        for cut in range(len(wire)):
            prefix = wire[:cut]
            old = _reference(prefix)
            new = _production(prefix)
            assert old[0] == "err" and new[0] == "err", (
                f"prefix of {cut} bytes accepted"
            )

    def test_every_suffix_extension_rejected(self, vectors):
        wire = vectors["denial"]
        for junk in (b"\x00", b"N" + b"\x00" * 4, b"\xff" * 7):
            extended = wire + junk
            assert _reference(extended)[0] == "err"
            with pytest.raises(WireCodecError):
                _zero_copy(extended)


class TestHostileFrames:
    def test_overlong_length_is_truncation(self):
        for tag in (b"S", b"L", b"M", b"B"):
            case = tag + (0xFFFFFFFF).to_bytes(4, "big") + b"payload"
            with pytest.raises(TruncatedWireError):
                _zero_copy(case)
            assert _reference(case)[0] == "err"

    def test_depth_bomb_rejected_cheaply(self):
        bomb = _frame(b"N", b"")
        for _ in range(250):
            bomb = _frame(b"L", bomb)
        with pytest.raises(WireDepthError):
            _zero_copy(bomb)
        assert _reference(bomb)[0] == "err"

    def test_depth_at_bound_still_parses(self):
        nested = _frame(b"N", b"")
        for _ in range(150):
            nested = _frame(b"L", nested)
        assert _zero_copy(nested) == from_wire(nested)

    def test_duplicate_map_keys_rejected(self):
        key = _frame(b"S", b"a")
        value = _frame(b"N", b"")
        wire = _frame(b"M", key + value + key + value)
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _reference(wire)[0] == "err"

    def test_unsorted_map_keys_rejected(self):
        pair_b = _frame(b"S", b"b") + _frame(b"N", b"")
        pair_a = _frame(b"S", b"a") + _frame(b"N", b"")
        wire = _frame(b"M", pair_b + pair_a)
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _reference(wire)[0] == "err"

    def test_unknown_tag_rejected(self):
        for tag in (b"Z", b"\x00", b"\xff"):
            wire = _frame(tag, b"x")
            with pytest.raises(WireCodecError):
                _zero_copy(wire)
            assert _reference(wire)[0] == "err"

    def test_noncanonical_integer_rejected(self):
        wire = _frame(b"I", b"\x00\x01")  # leading zero byte
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _reference(wire)[0] == "err"

    @pytest.mark.parametrize("packed", [
        {"__kind__": "dn", "rdns": [[1, "x"]]},
        {"__kind__": "dn", "rdns": [[None, "x"]]},
        {"__kind__": "dn", "rdns": [["CN", 5]]},
        {"__kind__": "dn", "rdns": [["CN", b"x"]]},
        {**_RES_SPEC, "rate_mbps": "fast"},
        {**_RES_SPEC, "end": None},
        {**_RES_SPEC, "start": [0.0]},
    ])
    def test_type_confused_validator_field_rejected(self, packed):
        """Well-framed values of the wrong type reach the DN and request
        validators, which fail with AttributeError/TypeError on them;
        the production decoder must turn that into a typed rejection."""
        wire = canonical.encode(packed)
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _reference(wire)[0] == "err"


class TestBitFlipSweep:
    """Every bit of every byte of a real signed RAR wire, both decoders."""

    @pytest.mark.parametrize("vector", ["rar_user", "denial"])
    def test_full_sweep_parity(self, vectors, vector):
        wire = bytearray(vectors[vector])
        mismatches = []
        for position in range(len(wire)):
            original = wire[position]
            for bit in range(8):
                wire[position] = original ^ (1 << bit)
                mutated = bytes(wire)
                old = _reference(mutated)
                new = _production(mutated)
                if old[0] != new[0] or (
                    old[0] == "ok" and old[1] != new[1]
                ):
                    mismatches.append((position, bit, old[0], new[0]))
            wire[position] = original
        assert not mismatches, (
            f"{len(mismatches)} accept/value divergences, first: "
            f"{mismatches[0]}"
        )

    def test_append_chain_sample_sweep(self, vectors):
        """The 4.7 kB append chain, every byte, one pseudo-random bit
        (a full 8-bit sweep of this wire runs in CI's bench job only)."""
        wire = bytearray(vectors["rar_append_3hop"])
        rng = random.Random(10)
        for position in range(len(wire)):
            original = wire[position]
            wire[position] = original ^ (1 << rng.randrange(8))
            mutated = bytes(wire)
            assert _reference(mutated)[0] == _production(mutated)[0]
            wire[position] = original


class TestGarbage:
    def test_random_garbage_never_crashes(self):
        rng = random.Random(1234)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 64))
            old = _reference(blob)
            new = _production(blob)
            assert old[0] == new[0]
            assert new[0] == "err" or old[1] == new[1]

    def test_kind_and_peek_total_on_garbage(self):
        rng = random.Random(4321)
        for _ in range(200):
            blob = rng.randbytes(rng.randrange(6, 64))
            try:
                view = WireView.parse(blob)
            except WireCodecError:
                continue
            assert view.kind() is None or isinstance(view.kind(), str)
            assert view.peek("type", default="absent") is not None
