"""Property suite: the zero-copy decoder inverts the encoder.

Properties over Hypothesis-generated values (scalars, containers, and
real protocol objects — requests, envelopes in both chain shapes,
certificates):

* round-trip: ``from_wire(to_wire(x))`` is a fix point and the
  zero-copy :class:`~repro.core.codec.WireView` materializes the exact
  same value;
* byte stability: re-encoding either decoder's result reproduces the
  original wire bytes, and the encoder still writes the committed
  golden vectors;
* bit-flip parity: after flipping any bit anywhere in a valid wire,
  whatever the zero-copy decoder accepts re-encodes to exactly those
  bytes and the eager reference accepts it with an equal value;
  whatever it refuses, it refuses with a
  :class:`~repro.errors.ReproError` (which the ingress path converts to
  a typed denial), and if the reference still accepts, the value does
  not re-encode to what arrived — production ⊆ reference, the encoder is
  the specification.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import WireValueError, WireView, from_wire, pack, to_wire
from repro.core.messages import make_bb_rar, make_user_rar
from repro.core.testbed import build_linear_testbed
from repro.crypto import canonical
from repro.net.packet import DSCP

from tests.differential._harness import subset_violation
from tests.vectors.build_vectors import VECTOR_DIR

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _protocol_pool():
    """Real protocol objects.  The nested chain shape comes in through
    the golden vectors (``rar_nested_3hop``)."""
    testbed = build_linear_testbed(["A", "B", "C"])
    alice = testbed.add_user("A", "Alice")
    request = testbed.make_request(
        source="A", destination="C", bandwidth_mbps=25.0,
    )
    rar_u = make_user_rar(
        request=request,
        source_bb=testbed.brokers["A"].dn,
        user=alice.dn,
        user_key=alice.keypair.private,
        deadline=30.0,
        traceparent="00-abc-def-01",
    )
    bb_a = testbed.brokers["A"]
    wrapped = make_bb_rar(
        inner=rar_u,
        introduced_cert=alice.certificate,
        downstream=testbed.brokers["B"].dn,
        bb=bb_a.dn,
        bb_key=bb_a.keypair.private,
    )
    return (
        request,
        rar_u,
        wrapped,
        alice.certificate,
        alice.dn,
        alice.keypair.public,
    )


#: The committed golden vectors (deep chains in both shapes, approvals,
#: a denial) and the objects they decode to: the pool members whose wire
#: bytes are pinned.
GOLDEN = {
    path.stem: path.read_bytes() for path in sorted(VECTOR_DIR.glob("*.bin"))
}

POOL = _protocol_pool() + tuple(from_wire(w) for w in GOLDEN.values())

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
    | st.floats(allow_nan=False)
    | st.text(max_size=24)
    | st.binary(max_size=24)
    | st.sampled_from(tuple(DSCP))
    | st.sampled_from(POOL)
)

values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)


@SETTINGS
@given(value=values)
def test_roundtrip_and_byte_stability(value):
    wire = to_wire(value)
    eager = from_wire(wire)
    view = WireView.parse(wire)
    materialized = view.materialize()

    assert materialized == eager
    assert to_wire(eager) == wire
    assert to_wire(materialized) == wire
    assert view.wire_size() == len(wire)
    # One round trip reaches the codec's fix point (lists become the
    # tuples the eager decoder always produced).
    assert from_wire(to_wire(eager)) == eager


def test_pool_wire_is_unchanged():
    """The decoder's strictness moved nothing the encoder writes: every
    pool member with a committed vector still encodes to it byte for
    byte, and every member is accepted exactly as encoded."""
    golden = POOL[-len(GOLDEN):]
    assert [to_wire(member) for member in golden] == list(GOLDEN.values())
    for member in POOL:
        wire = to_wire(member)
        assert to_wire(WireView.parse(wire).materialize()) == wire


def _tagged_maps(packed, found):
    """Every ``__kind__``-tagged map inside a packed structure."""
    if isinstance(packed, dict):
        if "__kind__" in packed:
            found.append(packed)
        for child in packed.values():
            _tagged_maps(child, found)
    elif isinstance(packed, list):
        for child in packed:
            _tagged_maps(child, found)
    return found


@SETTINGS
@given(value=values, data=st.data())
def test_extra_key_respelling_is_refused(value, data):
    """One more key in any tagged map is a second spelling of the same
    value: the reference decodes it to *value*, so the production
    decoder — which the replay guard relies on — must refuse it."""
    packed = pack(value)
    maps = _tagged_maps(packed, [])
    if not maps:
        return  # a bare scalar has no map to re-spell
    target = data.draw(st.sampled_from(range(len(maps))), label="map")
    maps[target]["zzz"] = data.draw(st.integers(0, 9), label="junk")
    respelled = canonical.encode(packed)

    assert from_wire(respelled) == from_wire(to_wire(value))
    with pytest.raises(WireValueError):
        WireView.parse(respelled).materialize()


@SETTINGS
@given(value=values, data=st.data())
def test_bit_flip_parity(value, data):
    wire = bytearray(to_wire(value))
    position = data.draw(
        st.integers(min_value=0, max_value=len(wire) - 1), label="byte"
    )
    bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
    wire[position] ^= 1 << bit
    assert subset_violation(bytes(wire)) is None


@SETTINGS
@given(value=values)
def test_kind_and_peek_never_raise(value):
    """kind()/peek() are total on any prefix-truncated wire: they answer
    or return the default, never raise — materialize() is the sole
    rejection authority."""
    wire = to_wire(value)
    for cut in (1, len(wire) // 2, len(wire) - 1, len(wire)):
        try:
            view = WireView.parse(wire[:cut])
        except Exception:
            continue  # parse may reject the outer frame; that is fine
        view.kind()
        view.peek("type")
        view.peek("deadline", default=-1.0)
