"""Unit and property tests for canonical byte encoding."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import canonical
from repro.errors import EncodingError


class TestBasicValues:
    def test_none(self):
        assert canonical.encode(None) == b"N" + (0).to_bytes(4, "big")

    def test_bool_distinct_from_int(self):
        assert canonical.encode(True) != canonical.encode(1)
        assert canonical.encode(False) != canonical.encode(0)

    def test_int_roundtrip_distinct(self):
        values = [0, 1, -1, 10**40, -(10**40), 255, 256]
        encodings = {canonical.encode(v) for v in values}
        assert len(encodings) == len(values)

    def test_float_distinct_from_int(self):
        assert canonical.encode(1.0) != canonical.encode(1)

    def test_float_nan_rejected(self):
        with pytest.raises(EncodingError):
            canonical.encode(float("nan"))

    def test_float_inf_rejected(self):
        with pytest.raises(EncodingError):
            canonical.encode(math.inf)
        with pytest.raises(EncodingError):
            canonical.encode(-math.inf)

    def test_str_bytes_distinct(self):
        assert canonical.encode("ab") != canonical.encode(b"ab")

    @pytest.mark.parametrize("frame", [
        b"T\x00\x00\x00\x03abc",
        b"F\x00\x00\x00\x03abc",
    ])
    def test_boolean_frame_with_payload_rejected(self, frame):
        # One flipped tag bit away from a B frame: the payload must not
        # vanish into a bare True/False.
        with pytest.raises(EncodingError, match="boolean payload"):
            canonical.decode(frame)
        assert canonical.decode(frame[:1] + bytes(4)) is (frame[:1] == b"T")

    def test_unicode(self):
        assert canonical.encode("héllo") != canonical.encode("hello")


class TestComposites:
    def test_tuple_list_equivalent(self):
        assert canonical.encode((1, 2)) == canonical.encode([1, 2])

    def test_concatenation_ambiguity(self):
        # The classic injectivity trap.
        assert canonical.encode(("ab", "c")) != canonical.encode(("a", "bc"))

    def test_nesting_ambiguity(self):
        assert canonical.encode([[1], 2]) != canonical.encode([1, [2]])
        assert canonical.encode([[]]) != canonical.encode([])

    def test_dict_key_order_irrelevant(self):
        assert canonical.encode({"a": 1, "b": 2}) == canonical.encode({"b": 2, "a": 1})

    def test_dict_vs_list_of_pairs(self):
        assert canonical.encode({"a": 1}) != canonical.encode([["a", 1]])

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical.encode({1: "a"})

    def test_mixed_dict_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical.encode({"a": 1, 2: 3})

    def test_unsupported_type_rejected(self):
        with pytest.raises(EncodingError):
            canonical.encode({"x": object()})

    def test_to_cbe_hook(self):
        class Wrapped:
            def to_cbe(self):
                return {"kind": "wrapped", "value": 7}

        assert canonical.encode(Wrapped()) == canonical.encode(
            {"kind": "wrapped", "value": 7}
        )

    def test_depth_limit(self):
        value = []
        for _ in range(300):
            value = [value]
        with pytest.raises(EncodingError):
            canonical.encode(value)

    def test_huge_int_is_a_typed_error(self):
        """Beyond the interpreter's decimal-conversion limit an integer
        is unencodable like any other value, not a bare ValueError."""
        with pytest.raises(EncodingError, match="too large"):
            canonical.encode(10**5000)
        with pytest.raises(EncodingError, match="too large"):
            canonical.encode({"serial": [-(10**5000)]})

    def test_lone_surrogate_is_a_typed_error(self):
        for value in ("\udc80", ["\ud800"], {"k": "a\udfffb"}, {"\udc80": 1}):
            with pytest.raises(EncodingError, match="unicode"):
                canonical.encode(value)


class TestDigestFingerprint:
    def test_digest_length(self):
        assert len(canonical.digest({"a": 1})) == 32

    def test_fingerprint_prefix(self):
        fp = canonical.fingerprint("hello", length=12)
        assert len(fp) == 12
        assert fp == canonical.digest("hello").hex()[:12]

    def test_digest_changes_with_value(self):
        assert canonical.digest({"bw": 10}) != canonical.digest({"bw": 11})


# -- property tests -----------------------------------------------------------

_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)

_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


def _normalize(v):
    """Logical equality modulo tuple/list equivalence."""
    if isinstance(v, (list, tuple)):
        return ("seq", tuple(_normalize(x) for x in v))
    if isinstance(v, dict):
        return ("map", tuple(sorted((k, _normalize(x)) for k, x in v.items())))
    if isinstance(v, float):
        return ("f", v.hex())
    if isinstance(v, bool):
        return ("b", v)
    return v


@settings(max_examples=200)
@given(_value)
def test_encode_deterministic(value):
    assert canonical.encode(value) == canonical.encode(value)


@settings(max_examples=200)
@given(_value, _value)
def test_encode_injective(a, b):
    if _normalize(a) != _normalize(b):
        assert canonical.encode(a) != canonical.encode(b)
    else:
        assert canonical.encode(a) == canonical.encode(b)


@settings(max_examples=300)
@given(st.binary(max_size=120))
def test_decoder_total_on_garbage(data):
    """Safety: the wire decoder never raises anything but EncodingError on
    arbitrary bytes, and anything it does accept re-encodes canonically."""
    try:
        value = canonical.decode(data)
    except EncodingError:
        return
    # Accepted input must be the canonical encoding of its own value.
    assert canonical.encode(value) == data
