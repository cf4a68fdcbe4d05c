"""Fuzz-style negative tests: the zero-copy decoder never crashes.

Deterministic adversarial sweeps over real protocol wires and
hand-crafted hostile frames.  The contract under attack input:

* the decoder raises only :class:`~repro.errors.ReproError` — what the
  ingress path converts into a typed denial (never a segfault-analogue
  like an uncaught IndexError or a hang);
* pure wire-level corruption (truncation, depth bombs, over-long
  lengths, duplicate keys) raises :class:`WireCodecError` specifically;
* production ⊆ reference, and the encoder is the specification: every
  mutant the production decoder accepts re-encodes to exactly the bytes
  that arrived and the eager reference decoder accepts it with an equal
  value; a mutant only the reference accepts does not re-encode to
  itself (a second spelling of some value, which the replay guard must
  never see decode).
"""

import random

import pytest

from repro.core.codec import (
    TruncatedWireError,
    WireCodecError,
    WireDepthError,
    WireValueError,
    WireView,
    from_wire,
    to_wire,
)
from repro.crypto import canonical

from tests.differential._harness import (
    INGRESS_CATCHABLE,
    REFERENCE_CATCHABLE,
    classify,
    subset_violation,
    zero_copy as _zero_copy,
)
from tests.vectors.build_vectors import build_all


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(4, "big") + payload


def _reference(wire):
    return classify(from_wire, wire, REFERENCE_CATCHABLE)


def _production(wire):
    return classify(_zero_copy, wire, INGRESS_CATCHABLE)


def _seq_of(item: bytes) -> bytes:
    """The frames ``pack`` writes for a one-item list around *item*
    (hand-framed: the encoder refuses to nest past the depth bound)."""
    return _frame(
        b"M",
        _frame(b"S", b"__kind__") + _frame(b"S", b"seq")
        + _frame(b"S", b"items") + _frame(b"L", item),
    )


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
        # 125 nested lists as the encoder spells them: 250 frames deep.
        bomb = _frame(b"N", b"")
        for _ in range(125):
            bomb = _seq_of(bomb)
        with pytest.raises(WireDepthError):
            _zero_copy(bomb)
        assert _reference(bomb)[0] == "err"
        # Bare list frames are no spelling of anything: refused at the
        # first frame, before any descent.
        bare = _frame(b"N", b"")
        for _ in range(250):
            bare = _frame(b"L", bare)
        with pytest.raises(WireCodecError):
            _zero_copy(bare)
        assert _reference(bare)[0] == "err"

    def test_depth_at_bound_still_parses(self):
        nested = None
        for _ in range(75):  # 150 frames deep, as the encoder nests them
            nested = [nested]
        wire = to_wire(nested)
        assert _zero_copy(wire) == from_wire(wire)
        assert to_wire(_zero_copy(wire)) == wire

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

    @pytest.mark.parametrize("tag", [b"T", b"F"])
    def test_boolean_frame_with_payload_rejected(self, tag):
        """One flipped bit turns a ``B`` signature frame into ``F``; the
        bytes must not vanish into ``False``."""
        wire = _frame(tag, b"abc")
        with pytest.raises(WireValueError, match="boolean payload"):
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


#: The two 3-hop chains are 4.6 kB each and a full injectivity sweep of
#: one takes ~18 s: tier-1 flips one seeded pseudo-random bit per byte
#: of these, ``pytest --full-sweeps`` (the differential CI job) all eight.
_SAMPLED_IN_TIER1 = {"rar_nested_3hop", "rar_append_3hop"}


class TestBitFlipSweep:
    """Every bit of every byte of a real signed wire."""

    @pytest.mark.parametrize("vector", ["rar_user", "denial"])
    def test_full_sweep_parity(self, vectors, vector):
        wire = bytearray(vectors[vector])
        violations = []
        for position in range(len(wire)):
            original = wire[position]
            for bit in range(8):
                wire[position] = original ^ (1 << bit)
                why = subset_violation(bytes(wire))
                if why is not None:
                    violations.append((position, bit, why))
            wire[position] = original
        assert not violations, (
            f"{len(violations)} mutants break production ⊆ reference, "
            f"first: {violations[0]}"
        )

    def test_append_chain_sample_sweep(self, vectors):
        """The 4.7 kB append chain, every byte, one pseudo-random bit."""
        wire = bytearray(vectors["rar_append_3hop"])
        rng = random.Random(10)
        for position in range(len(wire)):
            original = wire[position]
            wire[position] = original ^ (1 << rng.randrange(8))
            assert subset_violation(bytes(wire)) is None, position
            wire[position] = original

    @pytest.mark.parametrize("vector", [
        "scalars", "request", "rar_user", "rar_nested_3hop",
        "rar_append_3hop", "approval_chain", "denial",
    ])
    def test_accepted_mutants_reencode_to_themselves(
        self, vectors, vector, request
    ):
        """The injectivity the replay guard keys on: no single flipped
        bit yields a second accepted spelling of any value."""
        wire = bytearray(vectors[vector])
        sampled = (
            vector in _SAMPLED_IN_TIER1
            and not request.config.getoption("--full-sweeps")
        )
        rng = random.Random(10)
        accepted = respelled = 0
        for position in range(len(wire)):
            original = wire[position]
            for bit in (rng.randrange(8),) if sampled else range(8):
                wire[position] = original ^ (1 << bit)
                mutated = bytes(wire)
                try:
                    value = _zero_copy(mutated)
                except INGRESS_CATCHABLE:
                    continue
                accepted += 1
                respelled += to_wire(value) != mutated
            wire[position] = original
        assert accepted and not respelled, (
            f"{respelled} of {accepted} accepted mutants are a second "
            "spelling of the value they decode to"
        )


class TestGarbage:
    def test_random_garbage_never_crashes(self):
        rng = random.Random(1234)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 64))
            assert subset_violation(blob) is None

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
